package serve

import (
	"testing"
	"time"

	"twosmart/internal/session"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
	"twosmart/internal/wire"
)

// TestServeTraceCapture streams stamped samples through a server tracing
// every one (SampleEvery=1) and pins the shard-tier record invariants:
// hops telescope exactly to the end-to-end total, the gateway hop
// reflects the frame's ingress stamp, and the verdict-latency histogram
// carries exemplars pointing back at captured trace IDs.
func TestServeTraceCapture(t *testing.T) {
	_, data := fixtures(t)
	reg := telemetry.New()
	tr := trace.New(trace.Config{SampleEvery: 1, Depth: 512})
	ts := start(t, Config{Telemetry: reg, Tracer: tr, Model: Model{Name: "tiny"}}, nil)
	c := dial(t, ts)

	const n = 64
	if err := c.OpenStream(3, "traced-app"); err != nil {
		t.Fatal(err)
	}
	// Stamp an ingress time firmly in the past so the gateway hop — the
	// wall-clock delta between stamp and shard receive — is visibly
	// positive.
	ingress := time.Now().Add(-5 * time.Millisecond)
	b := session.Batch{Samples: samplesFrom(data, n)}
	for i := range b.Samples {
		b.Seqs = append(b.Seqs, uint32(i))
		b.Ats = append(b.Ats, ingress)
	}
	if err := c.SendBatch(3, b); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStream(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(wire.StreamSummary); ok {
			break
		}
	}

	recs := tr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no trace records captured with SampleEvery=1")
	}
	ids := make(map[uint64]bool, len(recs))
	sawScore := false
	for _, r := range recs {
		ids[r.TraceID] = true
		if r.Tier != trace.TierShard {
			t.Fatalf("record tier %q, want %q", r.Tier, trace.TierShard)
		}
		if r.App != "traced-app" || r.Stream != 3 {
			t.Fatalf("record app/stream = %q/%d, want traced-app/3", r.App, r.Stream)
		}
		var sum int64
		for h, d := range r.Hops {
			if d < 0 {
				t.Fatalf("hop %s negative: %d (record %+v)", trace.HopNames[h], d, r)
			}
			sum += d
		}
		if sum != r.TotalNanos {
			t.Fatalf("hops sum %d != total %d (record %+v)", sum, r.TotalNanos, r)
		}
		if r.Hops[trace.HopGateway] == 0 {
			t.Fatalf("gateway hop 0 despite a stamped ingress 5ms in the past (record %+v)", r)
		}
		if r.Hops[trace.HopScore] > 0 {
			sawScore = true
		}
		if r.StartNanos <= 0 {
			t.Fatalf("StartNanos = %d, want a positive wall-clock anchor", r.StartNanos)
		}
	}
	if !sawScore {
		t.Fatal("no record attributed any time to the score hop")
	}

	s := reg.Histogram("serve_verdict_latency_seconds", telemetry.LatencyBuckets).Summary()
	if len(s.Exemplars) == 0 {
		t.Fatal("verdict latency histogram captured no exemplars")
	}
	for _, ex := range s.Exemplars {
		if !ids[ex.TraceID] {
			t.Fatalf("exemplar trace %d not among captured records", ex.TraceID)
		}
		if ex.Value <= 0 {
			t.Fatalf("exemplar value %v, want > 0", ex.Value)
		}
	}
}

// TestServeTraceUnstampedNoGatewayHop pins the direct-connection case:
// samples sent without an ingress stamp (plain Send, IngressNanos 0)
// must not fabricate a gateway hop.
func TestServeTraceUnstampedNoGatewayHop(t *testing.T) {
	_, data := fixtures(t)
	tr := trace.New(trace.Config{SampleEvery: 1, Depth: 64})
	ts := start(t, Config{Telemetry: telemetry.New(), Tracer: tr}, nil)
	c := dial(t, ts)

	if err := c.OpenStream(1, "direct-app"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samplesFrom(data, 16) {
		if err := c.Send(1, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(wire.StreamSummary); ok {
			break
		}
	}

	recs := tr.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no trace records captured")
	}
	for _, r := range recs {
		if r.Hops[trace.HopGateway] != 0 {
			t.Fatalf("gateway hop %d on an unstamped direct stream (record %+v)", r.Hops[trace.HopGateway], r)
		}
	}
}
