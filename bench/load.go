package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"twosmart/internal/serve"
	"twosmart/internal/wire"
)

// deadline is the per-sample latency limit: one sampling period of the
// paper's HPC monitor. A verdict later than this missed its purpose.
const deadline = paperPeriod

// keepVerdicts is how many delivered verdict frames a connection keeps
// for the wire rung of the ladder.
const keepVerdicts = 256

// preOpen is how many samples before an app's last one its successor's
// stream is opened. A shard drops a sample that reaches its ring in the
// same engine round as its stream's open, before the open is applied
// (README.md, Findings), so churned apps open ahead of their first sample
// by more than any scheduling stall: 10 samples, 100 ms at 10 ms.
const preOpen = 10

// maxServerFrame bounds the encoded size of the verdict and summary frames
// a server sends: with this many bytes buffered the next one is whole.
const maxServerFrame = 64

// sliceLen is the length of one measurement slice. Every end-to-end
// metric is computed per slice of the window and reported as the median
// over slices, so a stall or a collector cycle confined to one second
// moves one slice, not the run's result.
const sliceLen = time.Second

// window is a run's timeline as offsets from the schedule start t0:
// samples due in [start, end) are measured; sending stops at end.
type window struct {
	t0         time.Time
	start, end time.Duration
}

func (w window) in(d time.Duration) bool { return d >= w.start && d < w.end }

// slices is how many measurement slices the window holds.
func (w window) slices() int { return int((w.end - w.start + sliceLen - 1) / sliceLen) }

// slice returns the index of the slice holding offset d.
func (w window) slice(d time.Duration) int { return int((d - w.start) / sliceLen) }

// agent drives one connection: its sender follows the schedule and its
// receiver checks and times every verdict. The two share only the
// client (whose write side is mutex-guarded) and total.
type agent struct {
	run   string
	cli   *serve.Client
	sched *schedule
	rows  [][]float64
	want  []expect
	win   window
	tick  time.Duration
	spans *spanLog
	root  uint64 // parent span of the live window

	// total is the number of streams the sender opened, published before
	// its final closes; the receiver stops after that many summaries.
	total atomic.Int64
}

// sendStats is the sender's account of one connection.
type sendStats struct {
	sent          []uint64 // per stream id
	scheduled     []uint64 // per slice: samples due in it
	sentOnTime    uint64   // window samples handed to the client before the window ended
	late          hist     // send time - due time, window samples
	wakes         uint64
	wakeNanos     int64 // traced: time inside Send+Flush
	streamsOpened int
	err           error
}

// send runs the open-loop schedule: it wakes at most once per tick, sends
// every sample already due (opening and closing churned apps as their
// lifetimes roll over), flushes once per wake, and stops at the window
// end. Samples are never skipped, so a sender that falls behind shows as
// lateness, not as lower offered load.
func (a *agent) send() (st sendStats) {
	s := a.sched
	type app struct {
		id        uint32
		gen, life int
		seq       uint32
		off       int // input offset (see schedule.input)
		open      bool
	}
	mk := func(slot, gen int) app {
		return app{id: s.stream(slot, gen), gen: gen, life: s.life(slot, gen), off: s.offset(slot, gen)}
	}
	open := func(slot int, p *app) error {
		p.open = true
		st.streamsOpened++
		return a.cli.OpenStream(p.id, s.app(slot, p.gen))
	}
	// live is the app each slot is streaming now; next is its successor,
	// opened preOpen samples before live's last one (at the start already
	// when the first app is that short).
	live, next := make([]app, s.slots), make([]app, s.slots)
	for slot := range live {
		live[slot], next[slot] = mk(slot, 0), mk(slot, 1)
		if st.err = open(slot, &live[slot]); st.err != nil {
			return st
		}
		if s.lifetime > 0 && live[slot].life <= preOpen {
			if st.err = open(slot, &next[slot]); st.err != nil {
				return st
			}
		}
	}
	st.scheduled = make([]uint64, a.win.slices())
	if st.err = a.cli.Flush(); st.err != nil {
		return st
	}

	var r int64 // round of the cursor
	i := 0      // index into s.order of the cursor
	due := s.phase[s.order[0]]
	var nextWake time.Duration // at most one wake per tick
	for due < a.win.end {
		now := time.Since(a.win.t0)
		if due > now || now < nextWake {
			time.Sleep(max(nextWake, (due+a.tick-1)/a.tick*a.tick) - now)
			continue
		}
		nextWake = (now/a.tick + 1) * a.tick
		wake := a.spans.begin(a.run, "load.send", a.root)
		wakeStart := time.Now()
		for due <= now && due < a.win.end {
			slot := s.order[i]
			p := &live[slot]
			if st.err = a.cli.Send(p.id, p.seq, a.rows[(p.off+int(p.seq))%len(a.rows)]); st.err != nil {
				return st
			}
			for int(p.id) >= len(st.sent) {
				st.sent = append(st.sent, 0)
			}
			st.sent[p.id]++
			if p.seq++; p.life > 0 {
				if p.life-int(p.seq) <= preOpen && !next[slot].open {
					if st.err = open(slot, &next[slot]); st.err != nil {
						return st
					}
				}
				if int(p.seq) == p.life {
					if st.err = a.cli.CloseStream(p.id); st.err != nil {
						return st
					}
					live[slot], next[slot] = next[slot], mk(slot, p.gen+2)
				}
			}
			if a.win.in(due) {
				st.scheduled[a.win.slice(due)]++
				if now < a.win.end {
					st.sentOnTime++
				}
				st.late.add(now - due)
			}
			if i++; i == len(s.order) {
				i, r = 0, r+1
			}
			due = s.phase[s.order[i]] + time.Duration(r)*s.period
		}
		if st.err = a.cli.Flush(); st.err != nil {
			return st
		}
		st.wakes++
		if a.spans != nil {
			st.wakeNanos += time.Since(wakeStart).Nanoseconds()
		}
		wake.end()
	}
	// The window is over: close every live stream so the server answers
	// with its summaries (after the verdicts of everything still queued).
	a.total.Store(int64(st.streamsOpened))
	for slot := range live {
		for _, p := range []app{live[slot], next[slot]} {
			if !p.open {
				continue
			}
			if st.err = a.cli.CloseStream(p.id); st.err != nil {
				return st
			}
		}
	}
	st.err = a.cli.Flush()
	return st
}

// recvStream is the receiver's account of one stream.
type recvStream struct {
	got        []uint64 // bitset of seqs with a verdict
	verdicts   uint64
	shed       uint64
	summarized bool

	// placed caches the stream's schedule: the due time of seq 0 and the
	// input offset, so a verdict costs no hashing.
	placed bool
	due0   time.Duration
	off    int
}

// slice is the receiver's account of one slice of the window.
type slice struct {
	lat       hist   // recv - due, verdicts of the samples due in the slice
	onTime    uint64 // ... of those, within the deadline
	delivered uint64 // verdicts received during the slice
}

// recvStats is the receiver's account of one connection.
type recvStats struct {
	streams     []recvStream // per stream id
	slices      []slice
	mismatches  uint64
	duplicates  uint64
	summaries   int64
	badFrames   []string // error frames and frames about unknown streams
	firstWrong  string
	keep        []wire.Verdict
	frames      uint64 // traced: frames decoded without waiting on the socket
	decodeNanos int64
	err         error
}

func (rs *recvStats) stream(id uint32) *recvStream {
	for int(id) >= len(rs.streams) {
		rs.streams = append(rs.streams, recvStream{})
	}
	return &rs.streams[id]
}

// recv reads frames until every opened stream has its summary, timing
// each verdict from its sample's due time and checking it against the
// offline expectation.
func (a *agent) recv() (rs recvStats) {
	rs.slices = make([]slice, a.win.slices())
	// Bound the wait: a lost summary must fail the run, not hang it.
	if rs.err = a.cli.SetReadDeadline(a.win.t0.Add(a.win.end + 30*time.Second)); rs.err != nil {
		return rs
	}
	var burst openSpan
	burstFrames := 0
	var now time.Duration
	for {
		// A frame already whole in the read buffer arrived with the read
		// that buffered it, so the clock is read only after a read.
		stamp := a.cli.Buffered() < maxServerFrame
		buffered := a.cli.Buffered() > 0
		var t time.Time
		if a.spans != nil && buffered {
			t = time.Now()
			if burstFrames == 0 {
				burst = a.spans.begin(a.run, "load.recv", a.root)
			}
		}
		f, err := a.cli.Next()
		if err != nil {
			rs.err = fmt.Errorf("reading verdicts: %w", err)
			return rs
		}
		if stamp {
			now = time.Since(a.win.t0)
		}
		if a.spans != nil && buffered {
			rs.frames++
			rs.decodeNanos += time.Since(t).Nanoseconds()
			burstFrames++
			if a.cli.Buffered() == 0 {
				burst.end()
				burstFrames = 0
			}
		}
		switch fr := f.(type) {
		case wire.Verdict:
			a.verdict(&rs, fr, now)
		case wire.StreamSummary:
			if fr.Stream >= a.sched.streamIDs(a.win.end) {
				rs.badFrames = append(rs.badFrames, fmt.Sprintf("summary for stream %d, which was never opened", fr.Stream))
				continue
			}
			st := rs.stream(fr.Stream)
			st.shed, st.summarized = fr.Shed, true
			rs.summaries++
			if n := a.total.Load(); n > 0 && rs.summaries >= n {
				return rs
			}
		case wire.Error:
			rs.badFrames = append(rs.badFrames, fmt.Sprintf("server error frame: code %d: %s", fr.Code, fr.Msg))
		}
	}
}

func (a *agent) verdict(rs *recvStats, v wire.Verdict, now time.Duration) {
	if v.Stream >= a.sched.streamIDs(a.win.end) || int64(v.Seq) > int64(a.win.end/a.sched.period) {
		// Nothing was sent under this id or seq; keep the accounting bounded.
		rs.mismatches++
		rs.firstWrong = fmt.Sprintf("stream %d seq %d: no such sample was sent", v.Stream, v.Seq)
		return
	}
	st := rs.stream(v.Stream)
	word, bit := v.Seq/64, uint64(1)<<(v.Seq%64)
	for int(word) >= len(st.got) {
		st.got = append(st.got, 0)
	}
	if st.got[word]&bit != 0 {
		rs.duplicates++
		return
	}
	st.got[word] |= bit
	st.verdicts++
	if len(rs.keep) < keepVerdicts {
		rs.keep = append(rs.keep, v)
	}

	if !st.placed {
		st.due0, st.off, st.placed = a.sched.due(v.Stream, 0), a.sched.input(v.Stream, 0), true
	}
	want := a.want[(st.off+int(v.Seq))%len(a.want)]
	if v.Class != want.class || v.Flags&checkedFlags != want.flags {
		rs.mismatches++
		if rs.firstWrong == "" {
			rs.firstWrong = fmt.Sprintf("stream %d seq %d: class %d flags %#x, want class %d flags %#x",
				v.Stream, v.Seq, v.Class, v.Flags&checkedFlags, want.class, want.flags)
		}
	}
	if due := st.due0 + time.Duration(v.Seq)*a.sched.period; a.win.in(due) {
		sl := &rs.slices[a.win.slice(due)]
		lat := now - due
		sl.lat.add(lat)
		if lat <= deadline {
			sl.onTime++
		}
	}
	if a.win.in(now) {
		rs.slices[a.win.slice(now)].delivered++
	}
}

// fates reconciles one connection's sender and receiver: per stream,
// verdicts + shed (the server's summary) + lost = sent. A stream with more
// verdicts and shed than samples sent, or with no summary, is an error.
type fates struct {
	sent, verdicts, shed, lost uint64
	problems                   []string
}

func reconcile(conn int, st sendStats, rs recvStats) fates {
	var f fates
	n := max(len(st.sent), len(rs.streams))
	for id := 0; id < n; id++ {
		var sent uint64
		if id < len(st.sent) {
			sent = st.sent[id]
		}
		var r recvStream
		if id < len(rs.streams) {
			r = rs.streams[id]
		}
		if sent == 0 && r.verdicts == 0 && !r.summarized {
			continue // an id the schedule never used
		}
		f.sent += sent
		f.verdicts += r.verdicts
		f.shed += r.shed
		switch {
		case !r.summarized:
			f.problems = append(f.problems, fmt.Sprintf("conn %d stream %d: no summary", conn, id))
		case r.verdicts+r.shed > sent:
			f.problems = append(f.problems, fmt.Sprintf("conn %d stream %d: %d verdicts + %d shed > %d sent",
				conn, id, r.verdicts, r.shed, sent))
		default:
			f.lost += sent - r.verdicts - r.shed
		}
	}
	return f
}
