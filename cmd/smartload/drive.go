package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"twosmart/internal/session"
	"twosmart/internal/wire"
)

// plan is one agent connection's traffic: the app each stream carries
// and every sample to send, in send order. Synthetic and replayed load
// differ only in how their plans are built; drive runs both.
type plan struct {
	agent   string
	streams []planStream // stream ids are indices into streams
	// paced plans send each sample at its due offset from the moment the
	// connection is up and time its verdict from that due time, so a
	// stall that delays later sends is charged to them. Unpaced plans
	// send as fast as the connection takes them and time from the write.
	paced  bool
	sample func(i int) sample // the i-th send, in send order
}

// planStream is one stream of a plan: its app and how many samples it
// sends, with seqs 0..n-1 in send order.
type planStream struct {
	app string
	n   int
}

// sample is one send of a plan.
type sample struct {
	stream, seq uint32
	due         time.Duration // offset from the schedule start; paced plans only
	features    []float64
}

// drive runs one plan on its own connection: a sender working through
// the plan's schedule and a receiver matching verdicts back to due times.
func drive(ctx context.Context, addr string, p plan) connResult {
	c, err := session.Dial(ctx, addr, p.agent)
	if err != nil {
		return connResult{err: err}
	}
	defer c.Close()

	// due[s][seq] is the unix-nanos time sample (s, seq) is timed from.
	// It crosses to the receiver through atomics: the verdict is causally
	// after its send, but the Go memory model still wants explicit
	// synchronisation.
	due := make([][]atomic.Int64, len(p.streams))
	total := 0
	for s, st := range p.streams {
		due[s] = make([]atomic.Int64, st.n)
		total += st.n
	}
	recvDone := make(chan connResult, 1)
	go func() { recvDone <- receive(c, due) }()

	sent, err := send(ctx, c, p, due, total)
	select {
	case r := <-recvDone:
		r.sent = sent
		if err != nil && r.err == nil {
			r.err = err
		}
		return r
	case <-ctx.Done():
		return connResult{sent: sent, err: ctx.Err()}
	case <-time.After(60 * time.Second):
		return connResult{sent: sent, err: fmt.Errorf("%s: receiver did not finish within 60s", p.agent)}
	}
}

// send works through the plan's total sends on c and returns how many
// samples it wrote. Each stream opens at its first send; buffered frames
// are flushed before every wait for a due time, so no sample idles in the
// buffer for a period; every 64th send carries a heartbeat probe and a
// flush, so the run samples wire RTT beside verdict latency and syscalls
// stay amortised at full speed. Once every send succeeded, every stream
// is closed.
func send(ctx context.Context, c *session.Client, p plan, due [][]atomic.Int64, total int) (uint64, error) {
	var sent uint64
	opened := make([]bool, len(p.streams))
	start := time.Now()
	for i := 0; i < total; i++ {
		if ctx.Err() != nil {
			return sent, ctx.Err()
		}
		s := p.sample(i)
		at := time.Now()
		if p.paced {
			sched := start.Add(s.due)
			if wait := sched.Sub(at); wait > 0 {
				if err := c.Flush(); err != nil {
					return sent, err
				}
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return sent, ctx.Err()
				}
			}
			at = sched
		}
		if !opened[s.stream] {
			if err := c.OpenStream(s.stream, p.streams[s.stream].app); err != nil {
				return sent, err
			}
			opened[s.stream] = true
		}
		due[s.stream][s.seq].Store(at.UnixNano())
		if err := c.Send(s.stream, s.seq, s.features); err != nil {
			return sent, err
		}
		sent++
		if sent%64 == 0 {
			if err := c.Heartbeat(uint64(time.Now().UnixNano())); err != nil {
				return sent, err
			}
			if err := c.Flush(); err != nil {
				return sent, err
			}
		}
	}
	for s := range p.streams {
		if err := c.CloseStream(uint32(s)); err != nil {
			return sent, err
		}
	}
	return sent, c.Flush()
}

// receive reads server frames until every stream in due has its
// summary. A verdict consumes its sample's due time, so a duplicate from
// an at-least-once re-send is counted but timed only once.
func receive(c *session.Client, due [][]atomic.Int64) connResult {
	r := connResult{versions: map[uint32]uint64{}}
	for summaries := 0; summaries < len(due); {
		f, err := c.Next()
		if err != nil {
			r.err = err
			return r
		}
		switch fr := f.(type) {
		case wire.Heartbeat:
			// Echo of a probe the sender stamped with its send time: the
			// round trip measures wire + server turnaround without any
			// scoring in the path.
			if rtt := time.Since(time.Unix(0, int64(fr.Nanos))).Seconds(); rtt > 0 {
				hbHist().Observe(rtt)
			}
		case wire.Verdict:
			r.verdicts++
			if fr.Flags&wire.FlagAlarm != 0 {
				r.alarms++
			}
			if int(fr.Stream) < len(due) && int(fr.Seq) < len(due[fr.Stream]) {
				if t0 := due[fr.Stream][fr.Seq].Swap(0); t0 != 0 {
					r.latencies = append(r.latencies, time.Since(time.Unix(0, t0)).Seconds())
				}
			}
		case wire.StreamSummary:
			r.shed += fr.Shed
			r.versions[fr.ModelVersion]++
			summaries++
		case wire.Error:
			r.err = fmt.Errorf("server error %d: %s", fr.Code, fr.Msg)
			return r
		}
	}
	return r
}
