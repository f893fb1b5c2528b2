package cluster

import (
	"context"
	"testing"
	"time"

	"twosmart/internal/serve"
	"twosmart/internal/session"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
)

// TestClusterTraceEndToEnd runs the full gateway→shard topology with
// tracing on both tiers and pins the fleet-level trace contract: the
// gateway emits gateway-tier records attributing its route/queue and
// forward time per shard, the shard's records carry a positive gateway
// hop (proof the v3 ingress stamp crossed the wire), and the health
// prober publishes a per-shard RTT gauge.
func TestClusterTraceEndToEnd(t *testing.T) {
	det, data := fixtures(t)

	shardTr := trace.New(trace.Config{SampleEvery: 1, Depth: 512})
	shardReg := telemetry.New()
	srv, err := serve.New(serve.Config{
		Model:     serve.Model{Detector: det},
		Telemetry: shardReg,
		Log:       quietLog(),
		Tracer:    shardTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	shardAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shardCtx, shardCancel := context.WithCancel(context.Background())
	shardDone := make(chan error, 1)
	go func() { shardDone <- srv.Serve(shardCtx) }()
	t.Cleanup(func() {
		shardCancel()
		select {
		case <-shardDone:
		case <-time.After(10 * time.Second):
			t.Error("shard did not drain within 10s")
		}
	})

	gwTr := trace.New(trace.Config{SampleEvery: 1, Depth: 512})
	gwReg := telemetry.New()
	gw, err := New(Config{
		Shards:        []string{shardAddr.String()},
		CheckInterval: 50 * time.Millisecond,
		DialTimeout:   2 * time.Second,
		Telemetry:     gwReg,
		Log:           quietLog(),
		Tracer:        gwTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwAddr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gwCtx, gwCancel := context.WithCancel(context.Background())
	gwDone := make(chan error, 1)
	go func() { gwDone <- gw.Serve(gwCtx) }()
	t.Cleanup(func() {
		gwCancel()
		select {
		case err := <-gwDone:
			if err != nil {
				t.Errorf("gateway Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("gateway did not drain within 10s")
		}
	})

	dialCtx, dialCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dialCancel()
	c, err := session.Dial(dialCtx, gwAddr.String(), testAgent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const streams, perStream = 4, 30
	for s := 0; s < streams; s++ {
		if err := c.OpenStream(uint32(s), testApp(s)); err != nil {
			t.Fatal(err)
		}
	}
	sendWave(t, c, data, streams, 0, perStream)
	for s := 0; s < streams; s++ {
		if err := c.CloseStream(uint32(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[uint32]int)
	collect(t, c, verdicts, streams)

	// Gateway tier: route/queue + forward attribution, shard identity on
	// every record, hops telescoping exactly to the total.
	grecs := gwTr.Snapshot()
	if len(grecs) == 0 {
		t.Fatal("gateway captured no trace records with SampleEvery=1")
	}
	for _, r := range grecs {
		if r.Tier != trace.TierGateway {
			t.Fatalf("gateway record tier %q, want %q", r.Tier, trace.TierGateway)
		}
		if r.Shard != shardAddr.String() {
			t.Fatalf("gateway record shard %q, want %q", r.Shard, shardAddr)
		}
		var sum int64
		for h, d := range r.Hops {
			if d < 0 {
				t.Fatalf("gateway hop %s negative: %d", trace.HopNames[h], d)
			}
			sum += d
		}
		if sum != r.TotalNanos {
			t.Fatalf("gateway hops sum %d != total %d (record %+v)", sum, r.TotalNanos, r)
		}
		// The gateway is the ingress edge and never scores: those hops
		// belong to upstream stampers and the shard respectively.
		if r.Hops[trace.HopGateway] != 0 || r.Hops[trace.HopScore] != 0 {
			t.Fatalf("gateway record claims gateway/score time: %+v", r)
		}
	}

	// Shard tier: the forwarded frames carried the gateway's ingress
	// stamp, so the shard attributes cross-process gateway time.
	srecs := shardTr.Snapshot()
	if len(srecs) == 0 {
		t.Fatal("shard captured no trace records")
	}
	stamped := 0
	for _, r := range srecs {
		if r.Tier != trace.TierShard {
			t.Fatalf("shard record tier %q, want %q", r.Tier, trace.TierShard)
		}
		if r.Hops[trace.HopGateway] > 0 {
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatalf("no shard record carries a gateway hop; IngressNanos did not survive forwarding (%d records)", len(srecs))
	}

	// The health prober publishes its heartbeat RTT per shard.
	rttName := telemetry.Label("cluster_probe_rtt_seconds", "shard", shardAddr.String())
	deadline := time.Now().Add(5 * time.Second)
	for gwReg.Gauge(rttName).Value() <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s never became positive", rttName)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
