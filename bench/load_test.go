package main

import (
	"context"
	"net"
	"testing"
	"time"

	"twosmart/internal/serve"
	"twosmart/internal/wire"
)

// recorder is an in-process stand-in for a shard: it completes the
// handshake and records every frame the agent sends until EOF.
func recorder(t *testing.T) (addr string, frames <-chan []wire.Frame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan []wire.Frame, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			out <- nil
			return
		}
		defer nc.Close()
		r, w := wire.NewReader(nc), wire.NewWriter(nc)
		var got []wire.Frame
		if _, err := r.Next(); err == nil { // Hello
			w.Write(wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: 2})
			w.Flush()
			for {
				f, err := r.Next()
				if err != nil {
					break
				}
				if s, ok := f.(wire.Sample); ok {
					s.Features = append([]float64(nil), s.Features...)
					f = s
				}
				got = append(got, f)
			}
		}
		out <- got
	}()
	return ln.Addr().String(), out
}

// TestSendFollowsSchedule drives a churning schedule against the
// recorder and checks what went over the wire: every sample carries the
// scheduled input, each app is opened before its first sample and closed
// after its last, the window's samples are all counted, and lateness is
// measured against the due time.
func TestSendFollowsSchedule(t *testing.T) {
	addr, frames := recorder(t)
	cli, err := serve.Dial(context.Background(), addr, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sp := spec{name: "t", streams: 4, period: 2 * time.Millisecond, lifetime: 3}
	rows := [][]float64{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}
	a := &agent{
		cli:   cli,
		sched: newSchedule(sp, 5, 0, len(rows)),
		rows:  rows,
		win:   window{t0: time.Now().Add(5 * time.Millisecond), start: 10 * time.Millisecond, end: 50 * time.Millisecond},
		tick:  time.Millisecond,
	}
	st := a.send()
	if st.err != nil {
		t.Fatal(st.err)
	}
	if err := cli.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got := <-frames

	// 4 slots x (40 ms window / 2 ms period) samples are due in the window.
	if len(st.scheduled) != 1 || st.scheduled[0] != 80 || st.late.n != 80 {
		t.Errorf("scheduled %v, lateness samples %d; want [80] and 80", st.scheduled, st.late.n)
	}
	if p50 := time.Duration(st.late.quantile(0.5)); p50 < 0 || p50 > time.Second {
		t.Errorf("median lateness %s is not a plausible send delay", p50)
	}
	open := map[uint32]bool{}
	closed := map[uint32]bool{}
	var samples uint64
	for _, f := range got {
		switch fr := f.(type) {
		case wire.OpenStream:
			if open[fr.Stream] || closed[fr.Stream] {
				t.Fatalf("stream %d opened twice", fr.Stream)
			}
			open[fr.Stream] = true
		case wire.CloseStream:
			if !open[fr.Stream] {
				t.Fatalf("stream %d closed while not open", fr.Stream)
			}
			delete(open, fr.Stream)
			closed[fr.Stream] = true
		case wire.Sample:
			if !open[fr.Stream] {
				t.Fatalf("sample for stream %d outside its open/close", fr.Stream)
			}
			want := rows[a.sched.input(fr.Stream, fr.Seq)]
			if fr.Features[0] != want[0] || fr.Features[1] != want[1] {
				t.Fatalf("stream %d seq %d carries %v, want %v", fr.Stream, fr.Seq, fr.Features, want)
			}
			slot, gen := a.sched.locate(fr.Stream)
			if int(fr.Seq) >= a.sched.life(slot, gen) {
				t.Fatalf("stream %d sent seq %d past its life", fr.Stream, fr.Seq)
			}
			samples++
		}
	}
	if len(open) != 0 {
		t.Errorf("%d streams left open after send returned", len(open))
	}
	if len(closed) != st.streamsOpened || a.total.Load() != int64(st.streamsOpened) {
		t.Errorf("closed %d streams, opened %d, published total %d", len(closed), st.streamsOpened, a.total.Load())
	}
	var sent uint64
	for _, n := range st.sent {
		sent += n
	}
	if sent != samples {
		t.Errorf("sender counted %d samples, the wire carried %d", sent, samples)
	}
}

// TestVerdictTimedFromDue checks the receiver's accounting of single
// verdicts: latency runs from the sample's due time, only window samples
// are timed, the deadline splits on-time from late, wrong verdicts and
// duplicates are counted.
func TestVerdictTimedFromDue(t *testing.T) {
	sp := spec{name: "t", streams: 2, period: 10 * time.Millisecond}
	want := []expect{{class: 0}, {class: 2, flags: wire.FlagMalware}, {class: 0}}
	a := &agent{
		sched: newSchedule(sp, 1, 0, len(want)),
		want:  want,
		win:   window{start: 20 * time.Millisecond, end: 60 * time.Millisecond},
	}
	rs := recvStats{slices: make([]slice, a.win.slices())}
	sl := &rs.slices[0]
	verdictFor := func(id, seq uint32) wire.Verdict {
		w := want[a.sched.input(id, seq)]
		return wire.Verdict{Stream: id, Seq: seq, Class: w.class, Flags: w.flags | wire.FlagAlarm}
	}
	due := a.sched.due(0, 3) // inside the window
	a.verdict(&rs, verdictFor(0, 3), due+3*time.Millisecond)
	if sl.lat.n != 1 || sl.onTime != 1 || sl.delivered != 1 {
		t.Fatalf("on-time window verdict: timed %d, on time %d, delivered %d", sl.lat.n, sl.onTime, sl.delivered)
	}
	if got := time.Duration(sl.lat.quantile(0.5)); got < 3*time.Millisecond*99/100 || got > 3*time.Millisecond*101/100 {
		t.Errorf("latency %s, want 3ms from the due time", got)
	}
	a.verdict(&rs, verdictFor(0, 4), a.sched.due(0, 4)+deadline+time.Millisecond)
	if sl.lat.n != 2 || sl.onTime != 1 {
		t.Errorf("late verdict: timed %d, on time %d; want 2, 1", sl.lat.n, sl.onTime)
	}
	a.verdict(&rs, verdictFor(1, 0), 70*time.Millisecond) // due before the window
	if sl.lat.n != 2 || sl.delivered != 2 {
		t.Errorf("warm-up sample was timed (%d) or an after-window arrival counted as delivered (%d)", sl.lat.n, sl.delivered)
	}
	a.verdict(&rs, verdictFor(0, 3), due)
	if rs.duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", rs.duplicates)
	}
	wrong := verdictFor(1, 1)
	wrong.Flags ^= wire.FlagMalware
	a.verdict(&rs, wrong, 30*time.Millisecond)
	if rs.mismatches != 1 || rs.firstWrong == "" {
		t.Errorf("a flipped malware flag was not caught: %d mismatches", rs.mismatches)
	}
	a.verdict(&rs, wire.Verdict{Stream: 2, Seq: 0}, 30*time.Millisecond) // only streams 0 and 1 exist
	a.verdict(&rs, wire.Verdict{Stream: 0, Seq: 1 << 30}, 30*time.Millisecond)
	if rs.mismatches != 3 || len(rs.streams) > 2 {
		t.Errorf("verdicts for unsent samples: %d mismatches, %d streams tracked", rs.mismatches, len(rs.streams))
	}
}

func TestReconcileFates(t *testing.T) {
	st := sendStats{sent: []uint64{10, 5, 0, 7}}
	rs := recvStats{streams: []recvStream{
		{verdicts: 6, shed: 3, summarized: true}, // one lost
		{verdicts: 5, summarized: true},
		{},                                       // never used
		{verdicts: 6, shed: 2, summarized: true}, // more than sent
	}}
	f := reconcile(0, st, rs)
	if f.sent != 22 || f.verdicts != 17 || f.shed != 5 || f.lost != 1 {
		t.Errorf("fates %+v, want sent 22 verdicts 17 shed 5 lost 1", f)
	}
	if len(f.problems) != 1 {
		t.Errorf("problems %v, want one (stream 3 over-accounted)", f.problems)
	}
	rs.streams[1].summarized = false
	if f := reconcile(0, st, rs); len(f.problems) != 2 {
		t.Errorf("a missing summary was not reported: %v", f.problems)
	}
}
