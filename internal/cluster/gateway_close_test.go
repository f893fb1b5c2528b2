package cluster

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

const fakeWidth = 4

// fakeShard speaks the shard side of the wire protocol under the test's
// control: it refuses every new connection while refuse is set, echoes
// heartbeats, reports each stream event on events, and holds the
// StreamSummary owed for every CloseStream until release.
type fakeShard struct {
	addr   string
	refuse atomic.Bool
	events chan string // "open", "sample" or "close", in arrival order

	mu    sync.Mutex
	conns []net.Conn
	w     *wire.Writer // the data connection: the one that opened a stream
	held  []wire.StreamSummary
}

func startFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeShard{addr: ln.Addr().String(), events: make(chan string, 64)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.mu.Lock()
			fs.conns = append(fs.conns, nc)
			fs.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				fs.serve(nc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		fs.mu.Lock()
		for _, nc := range fs.conns {
			nc.Close()
		}
		fs.mu.Unlock()
		wg.Wait()
	})
	return fs
}

func (fs *fakeShard) serve(nc net.Conn) {
	r, w := wire.NewReader(nc), wire.NewWriter(nc)
	if _, err := r.Next(); err != nil || fs.refuse.Load() {
		return // closing before the Welcome fails the dial
	}
	w.Write(wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: fakeWidth, Model: "fake"})
	w.Flush()
	samples := make(map[uint32]uint64)
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch fr := f.(type) {
		case wire.Heartbeat:
			fs.mu.Lock()
			w.Write(fr)
			w.Flush()
			fs.mu.Unlock()
		case wire.OpenStream:
			fs.mu.Lock()
			fs.w = w
			fs.mu.Unlock()
			samples[fr.Stream] = 0
			fs.events <- "open"
		case wire.Sample:
			samples[fr.Stream]++
			fs.events <- "sample"
		case wire.CloseStream:
			fs.mu.Lock()
			fs.held = append(fs.held, wire.StreamSummary{Stream: fr.Stream, Samples: samples[fr.Stream]})
			fs.mu.Unlock()
			delete(samples, fr.Stream)
			fs.events <- "close"
		}
	}
}

// release sends the held summaries in the order their closes arrived,
// then a barrier Verdict: once the agent reads the barrier, the gateway
// has relayed or suppressed every summary before it.
func (fs *fakeShard) release(barrier wire.Verdict) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.held {
		fs.w.Write(s)
	}
	fs.held = nil
	fs.w.Write(barrier)
	return fs.w.Flush()
}

// expect reads the shard's next stream events and requires them to be
// want, in order.
func (fs *fakeShard) expect(t *testing.T, want ...string) {
	t.Helper()
	for i, w := range want {
		select {
		case got := <-fs.events:
			if got != w {
				t.Fatalf("shard event %d = %q, want %q (want %v)", i, got, w, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("shard event %d: no %q within 10s (want %v)", i, w, want)
		}
	}
}

// TestGatewayOneSummaryPerClose: a move's close and the agent's close of
// one stream id can both be outstanding on one upstream. The stream's
// move to shard b fails to dial and re-opens it on shard a, then the agent
// closes it, all before a answers. The agent must get exactly one
// summary, the final incarnation's, counting every sample the stream
// forwarded (2 to the first placement, 1 to the second) and carrying the
// agent close's shed.
func TestGatewayOneSummaryPerClose(t *testing.T) {
	a, b := startFakeShard(t), startFakeShard(t)
	b.refuse.Store(true)
	ring := BuildRing([]string{a.addr, b.addr}, DefaultReplicas)
	var app string
	for i := 0; ; i++ {
		if app = testApp(i); ring.Route(RouteKey(testAgent, app)) == b.addr {
			break
		}
	}
	tg := startGateway(t, []string{a.addr, b.addr})
	c := dialGateway(t, tg, testAgent)
	fv := make([]float64, fakeWidth)

	// With b down the stream opens on a.
	if err := c.OpenStream(0, app); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 2; seq++ {
		if err := c.Send(0, seq, fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	a.expect(t, "open", "sample", "sample")

	// b joins the ring through its health probe, then refuses the data
	// connection the stream's move will dial.
	b.refuse.Store(false)
	up := tg.reg.Gauge(telemetry.Label("cluster_shard_up", "shard", b.addr))
	for deadline := time.Now().Add(5 * time.Second); up.Value() != 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shard b never joined the ring")
		}
	}
	b.refuse.Store(true)

	// The next batch moves the stream toward b (closing it on a), fails
	// the dial and re-opens it on a; then the agent closes it.
	if err := c.Send(0, 2, fv); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStream(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	a.expect(t, "close", "open", "sample", "close")

	barrier := wire.Verdict{Stream: 0, Seq: math.MaxUint32}
	if err := a.release(barrier); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var summaries []wire.StreamSummary
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatalf("client read (have %d summaries): %v", len(summaries), err)
		}
		if fr, ok := f.(wire.StreamSummary); ok {
			summaries = append(summaries, fr)
		}
		if f == barrier {
			break
		}
	}
	if len(summaries) != 1 {
		t.Fatalf("agent got %d summaries %+v, want exactly 1", len(summaries), summaries)
	}
	if s := summaries[0]; s.Samples != 3 || s.Shed != 0 {
		t.Fatalf("summary %+v, want all 3 samples the stream forwarded with the agent close's shed (0)", s)
	}
	if drained := tg.reg.Counter("cluster_streams_drained_total").Value(); drained != 1 {
		t.Fatalf("cluster_streams_drained_total = %d, want 1 (the move)", drained)
	}
}

// TestGatewaySummaryForDeadShard: when a stream's shard is gone by the
// time the agent closes it, the gateway makes up the summary from its own
// accounting. The agent must get exactly one, counting the samples the
// stream forwarded.
func TestGatewaySummaryForDeadShard(t *testing.T) {
	a := startFakeShard(t)
	tg := startGateway(t, []string{a.addr})
	c := dialGateway(t, tg, testAgent)
	fv := make([]float64, fakeWidth)
	if err := c.OpenStream(0, testApp(0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint32(0); seq < 2; seq++ {
		if err := c.Send(0, seq, fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	a.expect(t, "open", "sample", "sample")

	// The shard dies: its connections close and it refuses new ones.
	a.refuse.Store(true)
	a.mu.Lock()
	for _, nc := range a.conns {
		nc.Close()
	}
	a.mu.Unlock()
	up := tg.reg.Gauge(telemetry.Label("cluster_shard_up", "shard", a.addr))
	for deadline := time.Now().Add(5 * time.Second); up.Value() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shard never left the ring")
		}
	}

	// Stream 1, opened and closed with no shard, is a barrier: the
	// connection's streams close in order, so once its summary arrives
	// every summary of stream 0 has been written.
	if err := c.CloseStream(0); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenStream(1, testApp(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStream(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var summaries []wire.StreamSummary
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatalf("client read (have %d summaries of stream 0): %v", len(summaries), err)
		}
		fr, ok := f.(wire.StreamSummary)
		if !ok {
			continue
		}
		if fr.Stream == 1 {
			break
		}
		summaries = append(summaries, fr)
	}
	if len(summaries) != 1 {
		t.Fatalf("agent got %d summaries of stream 0 %+v, want exactly 1", len(summaries), summaries)
	}
	if s := summaries[0]; s.Samples != 2 || s.Shed != 0 {
		t.Fatalf("summary %+v, want the 2 samples forwarded with the agent close's shed (0)", s)
	}
}
