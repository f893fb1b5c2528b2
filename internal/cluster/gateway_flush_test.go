package cluster

import (
	"testing"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// TestGatewayCountsFlushes drives two streams, one on each of two shards,
// in lock step, so every flush on either side of the gateway arrives on
// its own: the upstream flush counter must equal the stream events the
// shards saw (a round that leaves one upstream idle counts only the
// other), and the agent-side counter the frames the agent read.
func TestGatewayCountsFlushes(t *testing.T) {
	a, b := startFakeShard(t), startFakeShard(t)
	ring := BuildRing([]string{a.addr, b.addr}, DefaultReplicas)
	apps := map[*fakeShard]string{}
	for i := 0; len(apps) < 2; i++ {
		app := testApp(i)
		if ring.Route(RouteKey(testAgent, app)) == a.addr {
			apps[a] = app
		} else {
			apps[b] = app
		}
	}
	tg := startGateway(t, []string{a.addr, b.addr})
	for _, fs := range []*fakeShard{a, b} {
		up := tg.reg.Gauge(telemetry.Label("cluster_shard_up", "shard", fs.addr))
		for deadline := time.Now().Add(5 * time.Second); up.Value() != 1; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("shard %s never joined the ring", fs.addr)
			}
		}
	}
	c := dialGateway(t, tg, testAgent)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	agentFlushes := tg.reg.Counter("cluster_flushes_total")
	upstreamFlushes := tg.reg.Counter("cluster_upstream_flushes_total")
	read, shardsSaw := 1, 0 // the agent has read its Welcome

	// send writes one frame to the gateway and waits for fs to see what
	// the gateway forwarded.
	send := func(err error, fs *fakeShard, event string) {
		t.Helper()
		if err == nil {
			err = c.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		fs.expect(t, event)
		shardsSaw++
	}
	// answer writes one frame on fs's data connection and waits for the
	// agent to read what the gateway relayed.
	answer := func(fs *fakeShard, f wire.Frame) {
		t.Helper()
		fs.mu.Lock()
		fs.w.Write(f)
		err := fs.w.Flush()
		fs.held = nil
		fs.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Fatalf("agent read %+v, want %+v", got, f)
		}
		read++
	}

	fv := make([]float64, fakeWidth)
	const n = 3
	for id, fs := range []*fakeShard{a, b} {
		stream := uint32(id)
		send(c.OpenStream(stream, apps[fs]), fs, "open")
		for seq := uint32(0); seq < n; seq++ {
			send(c.Send(stream, seq, fv), fs, "sample")
			answer(fs, wire.Verdict{Stream: stream, Seq: seq})
		}
	}
	for id, fs := range []*fakeShard{a, b} {
		stream := uint32(id)
		send(c.CloseStream(stream), fs, "close")
		answer(fs, wire.StreamSummary{Stream: stream, Samples: n})
	}
	// A Heartbeat echo is the read loop's own flush.
	if err := c.Heartbeat(7); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Next(); err != nil || got != (wire.Heartbeat{Nanos: 7}) {
		t.Fatalf("agent read %+v, %v; want the Heartbeat echo", got, err)
	}
	read++

	if got := upstreamFlushes.Value(); got != uint64(shardsSaw) {
		t.Errorf("cluster_upstream_flushes_total = %d, want %d: one per forwarded open, sample and close", got, shardsSaw)
	}
	if got := agentFlushes.Value(); got != uint64(read) {
		t.Errorf("cluster_flushes_total = %d, want %d: the Welcome, each Verdict and summary, and the Heartbeat echo", got, read)
	}
}
