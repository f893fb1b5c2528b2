package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
)

func TestParseMetricsRoundTrip(t *testing.T) {
	// Build the exposition with the real writer so the parser is pinned
	// against what the fleet actually serves, including label escaping.
	reg := telemetry.New()
	reg.Counter("serve_verdicts_total").Add(42)
	reg.Gauge(telemetry.Label("cluster_shard_up", "shard", "127.0.0.1:9000")).Set(1)
	reg.Gauge(telemetry.Label("odd_label", "v", "has\"quote\\and\nnewline")).Set(3)
	h := reg.Histogram("serve_verdict_latency_seconds", telemetry.LatencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	if m.Types["serve_verdicts_total"] != "counter" ||
		m.Types["cluster_shard_up"] != "gauge" ||
		m.Types["serve_verdict_latency_seconds"] != "histogram" {
		t.Fatalf("TYPE classification wrong: %v", m.Types)
	}
	if v, ok := m.Get("serve_verdicts_total"); !ok || v != 42 {
		t.Fatalf("serve_verdicts_total = %v/%v, want 42", v, ok)
	}
	if v, ok := m.Get("cluster_shard_up", "shard", "127.0.0.1:9000"); !ok || v != 1 {
		t.Fatalf("cluster_shard_up{shard} = %v/%v, want 1", v, ok)
	}
	// Escaped label values come back to their original spelling.
	if v, ok := m.Get("odd_label", "v", "has\"quote\\and\nnewline"); !ok || v != 3 {
		t.Fatalf("unescaped label lookup = %v/%v, want 3", v, ok)
	}
	// The cumulative bucket series reconstruct the count and quantile.
	if v, ok := m.Get("serve_verdict_latency_seconds_count"); !ok || v != 100 {
		t.Fatalf("_count = %v/%v, want 100", v, ok)
	}
	p99 := m.Quantile("serve_verdict_latency_seconds", 0.99)
	if p99 <= 0 {
		t.Fatalf("p99 = %v, want > 0", p99)
	}
	// All observations were 0.002; the estimate must live in a bucket
	// whose range contains it.
	if p99 > 0.01 || p99 < 0.0005 {
		t.Fatalf("p99 = %v, implausible for a 2ms point mass", p99)
	}
}

func TestParseMetricsMalformed(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		`broken{a="unterminated} 1` + "\n",
		"noval{a=\"b\"}\n",
		"x 1e\n",
	} {
		if _, err := ParseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseMetrics(%q) accepted malformed input", bad)
		}
	}
	// +Inf bucket values and comments parse fine.
	ok := "# HELP x something\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 5\nx_sum 1\nx_count 5\n"
	m, err := ParseMetrics(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	bs := m.buckets("x", nil)
	if len(bs) != 1 || !math.IsInf(bs[0].le, 1) {
		t.Fatalf("buckets = %+v, want one +Inf bucket", bs)
	}
}

// TestParseMetricsNonFiniteValues pins skip-and-count: a NaN or ±Inf
// sample value drops just that series (counted in NonFinite) instead of
// rejecting the node's whole scrape — or worse, silently keeping a
// value that poisons every aggregate built on it. The le="+Inf" bucket
// *label* is not a value and must keep parsing.
func TestParseMetricsNonFiniteValues(t *testing.T) {
	cases := []struct {
		name      string
		in        string
		samples   int
		nonFinite int
	}{
		{"nan skipped", "a 1\nb NaN\nc 2\n", 2, 1},
		{"plus inf skipped", "a +Inf\n", 0, 1},
		{"minus inf skipped", "a -Inf\nb 7\n", 1, 1},
		{"lowercase nan skipped", "a nan\n", 0, 1},
		{"labeled series survives siblings", "x{shard=\"s1\"} NaN\nx{shard=\"s2\"} 3\n", 1, 1},
		{"inf bucket label kept", "x_bucket{le=\"+Inf\"} 5\n", 1, 0},
		{"all finite", "a 1\nb 2\n", 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ParseMetrics(strings.NewReader(tc.in))
			if err != nil {
				t.Fatalf("ParseMetrics(%q): %v", tc.in, err)
			}
			if len(m.Samples) != tc.samples || m.NonFinite != tc.nonFinite {
				t.Fatalf("samples=%d nonfinite=%d, want %d/%d",
					len(m.Samples), m.NonFinite, tc.samples, tc.nonFinite)
			}
		})
	}
	// The surviving labeled sibling is still addressable.
	m, err := ParseMetrics(strings.NewReader("x{shard=\"s1\"} NaN\nx{shard=\"s2\"} 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get("x", "shard", "s2"); !ok || v != 3 {
		t.Fatalf("x{shard=s2} = %v/%v, want 3", v, ok)
	}
	if _, ok := m.Get("x", "shard", "s1"); ok {
		t.Fatal("NaN series still addressable after skip")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	bs := []bucket{{le: 1, cum: 0}, {le: 2, cum: 100}, {le: math.Inf(1), cum: 100}}
	// All 100 observations sit in (1, 2]; the median interpolates to 1.5.
	if got := quantile(bs, 0.5); got != 1.5 {
		t.Fatalf("median = %v, want 1.5", got)
	}
	// A rank in the +Inf bucket clamps to the last finite bound.
	bs[2].cum = 200
	if got := quantile(bs, 0.99); got != 2 {
		t.Fatalf("p99 with overflow mass = %v, want clamp to 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// fakeNode serves /metrics built per request (so counters can advance
// between the two scrapes) and a fixed /debug/traces dump.
func fakeNode(t *testing.T, metrics func(scrape int64) string, dump trace.Dump) *httptest.Server {
	t.Helper()
	var scrapes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, metrics(scrapes.Add(1)))
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(dump)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestCollectStatusMergesFleet(t *testing.T) {
	shardTrace := trace.Record{
		TraceID: 9, Tier: trace.TierShard, App: "app-a", Stream: 1, Seq: 5,
		Hops:       [trace.NumHops]int64{1000, 2000, 300, 4000, 700},
		TotalNanos: 8000,
	}
	shard := fakeNode(t, func(n int64) string {
		// 200 verdicts and 10 sheds per scrape interval; latency mass at 2ms.
		// The shadow disagrees on 30 of 200 comparisons per interval while
		// the lifetime gauge, diluted by earlier agreement, reads 0.001.
		return fmt.Sprintf(`# TYPE serve_verdicts_total counter
serve_verdicts_total %d
# TYPE serve_shed_total counter
serve_shed_total %d
# TYPE shadow_observed_total counter
shadow_observed_total %d
# TYPE shadow_disagreements_total counter
shadow_disagreements_total %d
# TYPE shadow_divergence gauge
shadow_divergence 0.001
# TYPE serve_model_info gauge
serve_model_info{model="tiny",version="3"} 1
serve_model_info{model="tiny",version="2"} 0
# TYPE serve_rollout_pinned gauge
serve_rollout_pinned 1
# TYPE drift_alert gauge
drift_alert 1
# TYPE cascade_short_total counter
cascade_short_total %d
# TYPE cascade_pass_total counter
cascade_pass_total %d
# TYPE cascade_stage0_nanos_total counter
cascade_stage0_nanos_total %d
# TYPE cascade_stage0_samples_total counter
cascade_stage0_samples_total %d
# TYPE serve_verdict_latency_seconds histogram
serve_verdict_latency_seconds_bucket{le="0.001"} 0
serve_verdict_latency_seconds_bucket{le="0.005"} %d
serve_verdict_latency_seconds_bucket{le="+Inf"} %d
serve_verdict_latency_seconds_sum 1
serve_verdict_latency_seconds_count %d
`, 200*n, 10*n, 200*n, 30*n, 160*n, 40*n, 10000*n, 200*n, 200*n, 200*n, 200*n)
	}, trace.Dump{SampleEvery: 1, Depth: 256, HopNames: trace.HopNames[:], Records: []trace.Record{shardTrace}})

	gwTrace := trace.Record{
		TraceID: 4, Tier: trace.TierGateway, App: "app-a", Shard: "10.0.0.1:7000", Stream: 1, Seq: 2,
		Hops:       [trace.NumHops]int64{0, 500, 100, 0, 400},
		TotalNanos: 1000,
	}
	gw := fakeNode(t, func(n int64) string {
		return fmt.Sprintf(`# TYPE cluster_shards_healthy gauge
cluster_shards_healthy 2
# TYPE cluster_shard_up gauge
cluster_shard_up{shard="10.0.0.1:7000"} 1
cluster_shard_up{shard="10.0.0.2:7000"} 0
# TYPE cluster_samples_forwarded_total counter
cluster_samples_forwarded_total{shard="10.0.0.1:7000"} %d
# TYPE cluster_verdicts_relayed_total counter
cluster_verdicts_relayed_total{shard="10.0.0.1:7000"} %d
# TYPE cluster_streams_rerouted_total counter
cluster_streams_rerouted_total 3
# TYPE cluster_probe_rtt_seconds gauge
cluster_probe_rtt_seconds{shard="10.0.0.1:7000"} 0.0004
# TYPE cluster_streams_routed_total counter
cluster_streams_routed_total{shard="10.0.0.1:7000"} 16
# TYPE cluster_shard_model_version gauge
cluster_shard_model_version{shard="10.0.0.1:7000"} 3
`, 400*n, 390*n)
	}, trace.Dump{Records: []trace.Record{gwTrace}})

	dead := "127.0.0.1:1" // nothing listens here

	window := 100 * time.Millisecond
	st, err := CollectStatus(context.Background(),
		[]string{strings.TrimPrefix(gw.URL, "http://"), strings.TrimPrefix(shard.URL, "http://"), dead},
		CollectConfig{Window: window, Top: 10})
	if err != nil {
		t.Fatal(err)
	}

	if len(st.Shards) != 1 || len(st.Gateways) != 1 {
		t.Fatalf("got %d shards, %d gateways, want 1 each", len(st.Shards), len(st.Gateways))
	}
	sec := window.Seconds()
	sh := st.Shards[0]
	if sh.Verdicts != 200 {
		t.Fatalf("window verdicts %v, want 200", sh.Verdicts)
	}
	if math.Abs(sh.Divergence-0.15) > 1e-9 {
		t.Fatalf("shadow divergence %v, want the window's 30/200 = 0.15", sh.Divergence)
	}
	if want := 200 / sec; math.Abs(sh.VerdictRate-want) > want*0.01 {
		t.Fatalf("verdict rate %v, want %v", sh.VerdictRate, want)
	}
	if want := 10 / sec; math.Abs(sh.ShedRate-want) > want*0.01 {
		t.Fatalf("shed rate %v, want %v", sh.ShedRate, want)
	}
	if sh.Model != "tiny" || sh.ModelVersion != "3" {
		t.Fatalf("model %q v%q, want active generation tiny v3", sh.Model, sh.ModelVersion)
	}
	if !sh.DriftAlert || sh.Drift != "retrain" {
		t.Fatalf("drift = %v/%q, want alert/retrain", sh.DriftAlert, sh.Drift)
	}
	if sh.Rollout != "canary" {
		t.Fatalf("rollout = %q, want canary (serve_rollout_pinned=1)", sh.Rollout)
	}
	if sh.P99 <= 0.001 || sh.P99 > 0.005 {
		t.Fatalf("p99 = %v, want inside the (0.001, 0.005] bucket", sh.P99)
	}
	if sh.TraceCount != 1 {
		t.Fatalf("trace count = %d, want 1", sh.TraceCount)
	}
	// 160 shorts + 40 passes per interval → 80% short-circuited; 10000ns
	// over 200 stage-0 samples → 50ns/sample.
	if sh.Cascade == nil {
		t.Fatal("cascade section missing on a cascade-running shard")
	}
	if math.Abs(sh.Cascade.ShortFraction-0.8) > 0.001 {
		t.Fatalf("cascade short fraction %v, want 0.8", sh.Cascade.ShortFraction)
	}
	if math.Abs(sh.Cascade.Stage0PerSamp-50) > 0.5 {
		t.Fatalf("cascade stage-0 cost %vns/sample, want 50", sh.Cascade.Stage0PerSamp)
	}

	g := st.Gateways[0]
	if g.ShardsHealthy != 2 || g.Reroutes != 3 {
		t.Fatalf("gateway healthy/reroutes = %d/%v, want 2/3", g.ShardsHealthy, g.Reroutes)
	}
	if len(g.Shards) != 2 {
		t.Fatalf("gateway reports %d shards, want 2", len(g.Shards))
	}
	up := g.Shards[0] // sorted: 10.0.0.1 first
	if up.Shard != "10.0.0.1:7000" || !up.Up || up.ProbeRTT != 0.0004 {
		t.Fatalf("per-shard view %+v", up)
	}
	if up.ModelVersion != 3 {
		t.Fatalf("per-shard version view %+v, want v3", up)
	}
	if want := 400 / sec; math.Abs(up.ForwardRate-want) > want*0.01 {
		t.Fatalf("forward rate %v, want %v", up.ForwardRate, want)
	}
	if g.Shards[1].Up {
		t.Fatalf("down shard reported up: %+v", g.Shards[1])
	}

	if len(st.Errors) != 1 || st.Errors[0].Addr != dead {
		t.Fatalf("errors = %+v, want the dead node", st.Errors)
	}

	// Slowest traces merge both tiers, descending by total duration.
	if len(st.Slowest) != 2 {
		t.Fatalf("slowest holds %d traces, want 2", len(st.Slowest))
	}
	if st.Slowest[0].TraceID != 9 || st.Slowest[1].TraceID != 4 {
		t.Fatalf("slowest order %d, %d, want 9 (8µs) before 4 (1µs)",
			st.Slowest[0].TraceID, st.Slowest[1].TraceID)
	}

	// Both render paths work on the merged status.
	var text, js strings.Builder
	st.Render(&text)
	for _, want := range []string{"GATEWAY", "SHARDS", "tiny v3", "retrain", "CASCADE", "80.0% @50ns", "STAGE0", "SLOWEST TRACES", "UNREACHABLE",
		"[1 node(s) UNREACHABLE]", "ROLLOUT", "canary", "v3"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("render missing %q:\n%s", want, text.String())
		}
	}
	if err := st.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Status
	if err := json.Unmarshal([]byte(js.String()), &back); err != nil {
		t.Fatalf("JSON mode not round-trippable: %v", err)
	}
	if len(back.Slowest) != 2 || back.Slowest[0].Node == "" {
		t.Fatalf("JSON round trip lost traces: %+v", back.Slowest)
	}
}

func TestCollectStatusAllDead(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := CollectStatus(ctx, []string{"127.0.0.1:1"},
		CollectConfig{Window: 10 * time.Millisecond, Client: &http.Client{Timeout: 200 * time.Millisecond}})
	if err == nil {
		t.Fatal("CollectStatus succeeded with every node dead")
	}
	if st == nil || len(st.Errors) != 1 {
		t.Fatalf("status = %+v, want the node listed in Errors", st)
	}
}

// TestCollectStatusNeedsBothScrapes: a node whose first scrape failed has
// no window, so it is listed in Errors rather than shown with zero rates
// — a busy shard must never read as idle.
func TestCollectStatusNeedsBothScrapes(t *testing.T) {
	var scrapes atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		n := scrapes.Add(1)
		if n == 1 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "# TYPE serve_verdicts_total counter\nserve_verdicts_total %d\n", 500*n)
	}))
	t.Cleanup(flaky.Close)
	steady := fakeNode(t, func(n int64) string {
		return fmt.Sprintf("# TYPE serve_verdicts_total counter\nserve_verdicts_total %d\n", 100*n)
	}, trace.Dump{})

	flakyAddr := strings.TrimPrefix(flaky.URL, "http://")
	st, err := CollectStatus(context.Background(),
		[]string{flakyAddr, strings.TrimPrefix(steady.URL, "http://")},
		CollectConfig{Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 || st.Shards[0].Addr == flakyAddr {
		t.Fatalf("shards = %+v, want only the node with both scrapes", st.Shards)
	}
	if len(st.Errors) != 1 || st.Errors[0].Addr != flakyAddr || !strings.Contains(st.Errors[0].Err, "first scrape") {
		t.Fatalf("errors = %+v, want the node whose first scrape failed", st.Errors)
	}
}

// TestStatusAnnouncesNonFiniteSeries: NaN/±Inf series the parser skipped
// are counted per node and announced on the summary line, beside the
// unreachable count.
func TestStatusAnnouncesNonFiniteSeries(t *testing.T) {
	shard := fakeNode(t, func(n int64) string {
		return fmt.Sprintf("# TYPE serve_verdicts_total counter\nserve_verdicts_total %d\n"+
			"# TYPE shadow_divergence gauge\nshadow_divergence NaN\n", 100*n)
	}, trace.Dump{})
	gw := fakeNode(t, func(int64) string {
		return "# TYPE cluster_shards_healthy gauge\ncluster_shards_healthy 1\n" +
			"# TYPE cluster_probe_rtt_seconds gauge\ncluster_probe_rtt_seconds{shard=\"a\"} +Inf\n"
	}, trace.Dump{})
	st, err := CollectStatus(context.Background(),
		[]string{strings.TrimPrefix(shard.URL, "http://"), strings.TrimPrefix(gw.URL, "http://")},
		CollectConfig{Window: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One poisoned series per node, skipped once in each of two scrapes.
	if len(st.Shards) != 1 || st.Shards[0].NonFinite != 2 {
		t.Fatalf("shards = %+v, want one with 2 skipped series", st.Shards)
	}
	if len(st.Gateways) != 1 || st.Gateways[0].NonFinite != 2 {
		t.Fatalf("gateways = %+v, want one with 2 skipped series", st.Gateways)
	}
	var text strings.Builder
	st.Render(&text)
	first, _, _ := strings.Cut(text.String(), "\n")
	if !strings.Contains(first, "[4 non-finite series skipped]") {
		t.Fatalf("summary line %q does not announce the skipped series", first)
	}
}
