package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twosmart/internal/session"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

const fakeWidth = 4

// fakeShard speaks the shard side of the wire protocol under the test's
// control: it refuses every new connection while refuse is set, echoes
// heartbeats, reports each stream event on events, and holds the
// StreamSummary owed for every CloseStream until release, or for good
// once fail took it away.
type fakeShard struct {
	addr   string
	refuse atomic.Bool
	events chan string // "open", "sample" or "close", in arrival order
	// version, when set, is the model version the shard reports in its
	// Welcome and its heartbeat echoes.
	version atomic.Uint32

	mu    sync.Mutex
	conns []net.Conn
	data  net.Conn     // the data connection: the one that opened a stream
	w     *wire.Writer // data's writer
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
	w.Write(wire.Welcome{Proto: wire.ProtoVersion, NumFeatures: fakeWidth, Model: "fake", ModelVersion: fs.version.Load()})
	w.Flush()
	samples := make(map[uint32]uint64)
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch fr := f.(type) {
		case wire.Heartbeat:
			if v := fs.version.Load(); v != 0 {
				fr.ModelVersion = v
			}
			fs.mu.Lock()
			w.Write(fr)
			w.Flush()
			fs.mu.Unlock()
		case wire.OpenStream:
			fs.mu.Lock()
			fs.data, fs.w = nc, w
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

// fail takes the shard away from the gateway's data connection without
// answering the closes it holds: the shard refuses new connections, then
// sends e on the data connection, or drops that connection when e is nil.
// The probe connection keeps answering heartbeats, so only the data
// connection's relay can take the shard out of the ring.
func (fs *fakeShard) fail(e *wire.Error) error {
	fs.refuse.Store(true)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if e == nil {
		return fs.data.Close()
	}
	fs.w.Write(*e)
	return fs.w.Flush()
}

// sendRaw refuses new connections, as fail does, then writes b, encoded
// frames, on the data connection.
func (fs *fakeShard) sendRaw(b []byte) error {
	fs.refuse.Store(true)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.w.WriteRaw(b); err != nil {
		return err
	}
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

// sendAndClose opens stream 0 for app, sends it n samples and closes it.
func sendAndClose(t *testing.T, c *session.Client, app string, n int) {
	t.Helper()
	if err := c.OpenStream(0, app); err != nil {
		t.Fatal(err)
	}
	fv := make([]float64, fakeWidth)
	for seq := 0; seq < n; seq++ {
		if err := c.Send(0, uint32(seq), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// awaitShardDown waits until the gateway reads shard addr as down.
func awaitShardDown(t *testing.T, tg *testGateway, addr string) {
	t.Helper()
	up := tg.reg.Gauge(telemetry.Label("cluster_shard_up", "shard", addr))
	for deadline := time.Now().Add(5 * time.Second); up.Value() != 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("shard never left the ring")
		}
	}
}

// summariesOfStream0 reads the agent's frames until stream barrier's
// summary arrives or the gateway ends the connection, and returns the
// summaries of stream 0 read before that.
func summariesOfStream0(t *testing.T, c *session.Client, barrier uint32) []wire.StreamSummary {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []wire.StreamSummary
	for {
		f, err := c.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("client read (have %d summaries of stream 0): %v", len(got), err)
		}
		s, ok := f.(wire.StreamSummary)
		if ok && s.Stream == barrier {
			return got
		}
		if ok && s.Stream == 0 {
			got = append(got, s)
		}
	}
}

// wantOneSummary requires exactly one summary, counting the samples the
// gateway forwarded and the agent close's shed (0).
func wantOneSummary(t *testing.T, got []wire.StreamSummary, forwarded uint64) {
	t.Helper()
	if len(got) != 1 {
		t.Fatalf("agent got %d summaries of stream 0 %+v, want exactly 1", len(got), got)
	}
	if s := got[0]; s.Samples != forwarded || s.Shed != 0 {
		t.Fatalf("summary %+v, want the %d samples forwarded with the agent close's shed (0)", s, forwarded)
	}
}

// closeBarrier opens and closes stream 1 with no shard to place it on.
// The worker writes its made-up summary in order, so once it arrives
// every summary the gateway wrote for stream 0 before it has arrived.
func closeBarrier(t *testing.T, c *session.Client) {
	t.Helper()
	if err := c.OpenStream(1, testApp(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStream(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewaySummaryWhenShardDiesAfterClose: the agent's close reached
// the shard, and the shard drops the connection before it answers. The
// relay ends on the read error; it must answer the close it still holds
// before it marks the shard down.
func TestGatewaySummaryWhenShardDiesAfterClose(t *testing.T) {
	a := startFakeShard(t)
	tg := startGateway(t, []string{a.addr})
	c := dialGateway(t, tg, testAgent)
	sendAndClose(t, c, testApp(0), 1)
	a.expect(t, "open", "sample", "close")

	if err := a.fail(nil); err != nil {
		t.Fatal(err)
	}
	awaitShardDown(t, tg, a.addr)
	closeBarrier(t, c)
	wantOneSummary(t, summariesOfStream0(t, c, 1), 1)
}

// TestGatewaySummaryWhenShardDrains: the shard holds the summary of the
// agent's close and sends CodeDraining. The relay ends on the notice; it
// must answer the close it still holds.
func TestGatewaySummaryWhenShardDrains(t *testing.T) {
	a := startFakeShard(t)
	tg := startGateway(t, []string{a.addr})
	c := dialGateway(t, tg, testAgent)
	sendAndClose(t, c, testApp(0), 2)
	a.expect(t, "open", "sample", "sample", "close")

	if err := a.fail(&wire.Error{Code: wire.CodeDraining, Msg: "draining"}); err != nil {
		t.Fatal(err)
	}
	awaitShardDown(t, tg, a.addr)
	closeBarrier(t, c)
	wantOneSummary(t, summariesOfStream0(t, c, 1), 2)
}

// TestGatewaySummaryWhenAgentHangsUp: the agent closes its stream and
// half-closes its connection, and the shard closes the gateway's
// upstream without answering. The relay ends on EOF during the
// connection's teardown; the agent must still get its summary before the
// gateway closes the connection.
func TestGatewaySummaryWhenAgentHangsUp(t *testing.T) {
	a := startFakeShard(t)
	tg := startGatewayWith(t, []string{a.addr}, func(cfg *Config) { cfg.DialTimeout = 500 * time.Millisecond })
	c := dialGateway(t, tg, testAgent)
	sendAndClose(t, c, testApp(0), 3)
	if err := c.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	wantOneSummary(t, summariesOfStream0(t, c, math.MaxUint32), 3)
	a.expect(t, "open", "sample", "sample", "sample", "close")
}

// TestGatewayRelayStopsAtMalformedVerdict: the relay copies Verdicts as
// bytes, so it must forward exactly the frames the decoder accepts. The
// shard holds the summary of the agent's close and sends three Verdicts,
// a Verdict-typed frame one byte too long, and one more Verdict in one
// write. The agent must get the three, byte for byte, and nothing after
// them; the malformed frame ends the relay as a shard failure, so the
// shard is marked down, and the queued close still gets its one summary.
func TestGatewayRelayStopsAtMalformedVerdict(t *testing.T) {
	a := startFakeShard(t)
	tg := startGateway(t, []string{a.addr})
	c := dialGateway(t, tg, testAgent)
	sendAndClose(t, c, testApp(0), 1)
	a.expect(t, "open", "sample", "close")

	var good []byte
	for seq := uint32(0); seq < 3; seq++ {
		var err error
		if good, err = wire.Append(good, wire.Verdict{Stream: 0, Seq: seq, Flags: wire.FlagMalware, Class: 1, Score: 0.75, Smoothed: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := wire.Append(nil, wire.Verdict{Stream: 0, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad = append(bad, 0)
	binary.BigEndian.PutUint32(bad, uint32(len(bad)-4))
	after, err := wire.Append(nil, wire.Verdict{Stream: 0, Seq: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.sendRaw(append(append(append([]byte(nil), good...), bad...), after...)); err != nil {
		t.Fatal(err)
	}
	awaitShardDown(t, tg, a.addr)
	closeBarrier(t, c)

	// Read the relayed Verdicts as bytes, and every other frame decoded,
	// until the barrier's summary.
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var relayed []byte
	var summaries []wire.StreamSummary
	for {
		run, _, err := c.VerdictRun()
		if err != nil {
			t.Fatalf("client read (relayed %d bytes): %v", len(relayed), err)
		}
		if len(run) > 0 {
			relayed = append(relayed, run...)
			c.Discard(len(run))
			continue
		}
		f, err := c.Next()
		if err != nil {
			t.Fatalf("client read (relayed %d bytes): %v", len(relayed), err)
		}
		s, ok := f.(wire.StreamSummary)
		if ok && s.Stream == 1 {
			break
		}
		if ok && s.Stream == 0 {
			summaries = append(summaries, s)
		}
	}
	if !bytes.Equal(relayed, good) {
		t.Fatalf("agent got Verdict bytes\n%x\nwant the shard's valid ones\n%x", relayed, good)
	}
	wantOneSummary(t, summaries, 1)
	if n := tg.reg.Counter(telemetry.Label("cluster_verdicts_relayed_total", "shard", a.addr)).Value(); n != 3 {
		t.Fatalf("cluster_verdicts_relayed_total = %d, want 3", n)
	}
}
