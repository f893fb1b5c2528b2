package rollout

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/registry"
	"twosmart/internal/telemetry"
)

var (
	fixOnce sync.Once
	fixErr  error
	blobs   [2][]byte
)

// fixtures trains two tiny detectors (different seeds, different bytes)
// shared by the whole package — the registry only publishes real blobs.
func fixtures(t *testing.T) ([]byte, []byte) {
	t.Helper()
	fixOnce.Do(func() {
		data, err := corpus.Collect(corpus.Config{
			Scale:       0.001,
			MinPerClass: 24,
			Budget:      30000,
			Seed:        7,
			Omniscient:  true,
		})
		if err != nil {
			fixErr = err
			return
		}
		common, err := data.SelectByName(core.CommonFeatures)
		if err != nil {
			fixErr = err
			return
		}
		for i, seed := range []int64{5, 17} {
			det, err := core.Train(common, core.TrainConfig{Seed: seed})
			if err != nil {
				fixErr = err
				return
			}
			blobs[i], fixErr = det.Marshal()
			if fixErr != nil {
				return
			}
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return blobs[0], blobs[1]
}

// openWithCandidate builds a registry with v1 active and v2 published
// but not promoted — the standard rollout starting position.
func openWithCandidate(t *testing.T) *registry.Registry {
	t.Helper()
	blob1, blob2 := fixtures(t)
	r, err := registry.Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(blob1, registry.PublishOptions{Promote: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(blob2, registry.PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	return r
}

// shardOpts shapes one fake shard's exposition.
type shardOpts struct {
	version    int     // serve_model_info generation
	perScrape  int64   // verdicts added per scrape (0 = idle canary)
	slow       bool    // latency mass in the 0.5s bucket instead of 1ms
	driftAlert bool    // drift_alert gauge at 1
	divergence float64 // shadow disagreement rate on each scrape's verdicts when > 0
	shadowed   int64   // agreeing shadow comparisons made before the first scrape
}

// fakeShard serves /metrics whose counters advance each scrape, like a
// live shard under steady traffic.
func fakeShard(t *testing.T, opts *shardOpts) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	var scrapes int64
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		scrapes++
		n := scrapes
		o := *opts
		mu.Unlock()
		verdicts := o.perScrape * n
		fast, inf := verdicts, verdicts
		if o.slow {
			fast = 0
		}
		fmt.Fprintf(w, `# TYPE serve_verdicts_total counter
serve_verdicts_total %d
# TYPE serve_shed_total counter
serve_shed_total %d
# TYPE serve_model_info gauge
serve_model_info{model="det",version="%d"} 1
# TYPE serve_verdict_latency_seconds histogram
serve_verdict_latency_seconds_bucket{le="0.001"} %d
serve_verdict_latency_seconds_bucket{le="0.5"} %d
serve_verdict_latency_seconds_bucket{le="+Inf"} %d
serve_verdict_latency_seconds_count %d
`, verdicts, n, o.version, fast, inf, inf, verdicts)
		if o.driftAlert {
			fmt.Fprint(w, "# TYPE drift_alert gauge\ndrift_alert 1\n")
		}
		if o.divergence > 0 {
			// The shadow compares every verdict. The gauge is the lifetime
			// rate, diluted by the agreeing comparisons made earlier.
			observed := o.shadowed + verdicts
			disagreed := int64(math.Round(o.divergence * float64(verdicts)))
			fmt.Fprintf(w, `# TYPE shadow_observed_total counter
shadow_observed_total %d
# TYPE shadow_disagreements_total counter
shadow_disagreements_total %d
# TYPE shadow_divergence gauge
shadow_divergence %g
`, observed, disagreed, float64(disagreed)/float64(observed))
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func addr(srv *httptest.Server) string { return strings.TrimPrefix(srv.URL, "http://") }

func run(t *testing.T, reg *registry.Registry, canary, baseline *shardOpts, gates Gates, tel *telemetry.Registry) *State {
	t.Helper()
	c, err := New(Config{
		Registry:        reg,
		Candidate:       2,
		CanaryShard:     "canary-a",
		CanaryAddr:      addr(fakeShard(t, canary)),
		BaselineAddrs:   []string{addr(fakeShard(t, baseline))},
		Bake:            400 * time.Millisecond,
		Every:           100 * time.Millisecond,
		ConvergeTimeout: 2 * time.Second,
		Gates:           gates,
		Telemetry:       tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mustPins reads the manifest pin table directly off disk.
func mustPins(t *testing.T, reg *registry.Registry) map[string]int {
	t.Helper()
	m, err := reg.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	return m.Pins
}

// TestRolloutWidens is the happy path: a healthy candidate survives the
// bake, gets promoted fleet-wide, and the pin comes off.
func TestRolloutWidens(t *testing.T) {
	reg := openWithCandidate(t)
	tel := telemetry.New()
	st := run(t, reg,
		&shardOpts{version: 2, perScrape: 100},
		&shardOpts{version: 1, perScrape: 100},
		Gates{MinSamples: 10, MaxP99Ratio: 3, MaxDivergence: 0.1}, tel)

	if st.Phase != PhaseWidened {
		t.Fatalf("phase = %s (reason %q), want widened", st.Phase, st.Reason)
	}
	if len(st.Evaluations) == 0 {
		t.Fatal("widened with no recorded evaluations")
	}
	for i, ev := range st.Evaluations {
		if !ev.Pass {
			t.Fatalf("evaluation %d failed: %v", i, ev.Failures)
		}
		if ev.Canary.Verdicts < 10 {
			t.Fatalf("evaluation %d canary verdicts = %v, want >= 10", i, ev.Canary.Verdicts)
		}
		if ev.Divergence != -1 {
			t.Fatalf("evaluation %d divergence = %v, want -1 (no shadow scorer)", i, ev.Divergence)
		}
	}
	active, err := reg.ActiveEntry()
	if err != nil {
		t.Fatal(err)
	}
	if active.Version != 2 {
		t.Fatalf("active after widen = v%d, want v2", active.Version)
	}
	if pins := mustPins(t, reg); len(pins) != 0 {
		t.Fatalf("pins after widen = %v, want none", pins)
	}
	if got := tel.Gauge("rollout_state").Value(); got != 3 {
		t.Fatalf("rollout_state = %v, want 3 (widened)", got)
	}
	if tel.Counter("rollout_widens_total").Value() != 1 {
		t.Fatal("rollout_widens_total not incremented")
	}

	// The durable document must round-trip with the full evidence trail.
	saved, err := ReadState(reg)
	if err != nil {
		t.Fatal(err)
	}
	if saved == nil || saved.Phase != PhaseWidened || len(saved.Evaluations) != len(st.Evaluations) {
		t.Fatalf("ReadState = %+v, want widened with %d evaluations", saved, len(st.Evaluations))
	}
}

// TestRolloutRollsBackOnDrift: a retrain-or-rollback drift verdict on
// the canary fails the gate immediately, the pin comes off and the
// baseline stays active.
func TestRolloutRollsBackOnDrift(t *testing.T) {
	reg := openWithCandidate(t)
	tel := telemetry.New()
	st := run(t, reg,
		&shardOpts{version: 2, perScrape: 100, driftAlert: true},
		&shardOpts{version: 1, perScrape: 100},
		Gates{MinSamples: 10}, tel)

	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", st.Phase)
	}
	if !strings.Contains(st.Reason, "drift") {
		t.Fatalf("reason = %q, want a drift gate failure", st.Reason)
	}
	last := st.Evaluations[len(st.Evaluations)-1]
	if !last.DriftRetrain || last.Pass {
		t.Fatalf("final evaluation = %+v, want drift_retrain and pass=false", last)
	}
	active, err := reg.ActiveEntry()
	if err != nil {
		t.Fatal(err)
	}
	if active.Version != 1 {
		t.Fatalf("active after rollback = v%d, want v1", active.Version)
	}
	if pins := mustPins(t, reg); len(pins) != 0 {
		t.Fatalf("pins after rollback = %v, want none", pins)
	}
	if tel.Counter("rollout_rollbacks_total").Value() != 1 {
		t.Fatal("rollout_rollbacks_total not incremented")
	}
}

// TestRolloutRollsBackOnDivergence: shadow divergence over the
// threshold kills the candidate.
func TestRolloutRollsBackOnDivergence(t *testing.T) {
	reg := openWithCandidate(t)
	st := run(t, reg,
		&shardOpts{version: 2, perScrape: 100, divergence: 0.4},
		&shardOpts{version: 1, perScrape: 100},
		Gates{MinSamples: 10, MaxDivergence: 0.1}, nil)

	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", st.Phase)
	}
	if !strings.Contains(st.Reason, "divergence") {
		t.Fatalf("reason = %q, want a divergence gate failure", st.Reason)
	}
}

// TestDivergenceGateReadsTheWindow: a canary that shadowed the baseline
// long before the pin carries a million agreeing comparisons, which hold
// its lifetime shadow_divergence gauge under the threshold. The gate
// must read the window's counter deltas instead: 40% disagreement rolls
// back.
func TestDivergenceGateReadsTheWindow(t *testing.T) {
	reg := openWithCandidate(t)
	st := run(t, reg,
		&shardOpts{version: 2, perScrape: 100, divergence: 0.4, shadowed: 1_000_000},
		&shardOpts{version: 1, perScrape: 100},
		Gates{MinSamples: 10, MaxDivergence: 0.005}, nil)

	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %s (reason %q), want rolled_back", st.Phase, st.Reason)
	}
	if !strings.Contains(st.Reason, "divergence") {
		t.Fatalf("reason = %q, want a divergence gate failure", st.Reason)
	}
	last := st.Evaluations[len(st.Evaluations)-1]
	if math.Abs(last.Divergence-0.4) > 1e-9 {
		t.Fatalf("evaluation divergence = %v, want the window's 0.4", last.Divergence)
	}
}

// TestRolloutRollsBackOnP99: a canary whose latency mass sits at 500ms
// against a 1ms baseline trips the regression-ratio gate.
func TestRolloutRollsBackOnP99(t *testing.T) {
	reg := openWithCandidate(t)
	st := run(t, reg,
		&shardOpts{version: 2, perScrape: 100, slow: true},
		&shardOpts{version: 1, perScrape: 100},
		Gates{MinSamples: 10, MaxP99Ratio: 3}, nil)

	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", st.Phase)
	}
	if !strings.Contains(st.Reason, "p99") {
		t.Fatalf("reason = %q, want a p99 gate failure", st.Reason)
	}
	last := st.Evaluations[len(st.Evaluations)-1]
	if last.P99Ratio <= 3 {
		t.Fatalf("p99 ratio = %v, want > 3", last.P99Ratio)
	}
}

// TestIdleCanaryCannotPass: zero canary traffic under a MinSamples gate
// rolls back — absence of evidence is not passing evidence.
func TestIdleCanaryCannotPass(t *testing.T) {
	reg := openWithCandidate(t)
	st := run(t, reg,
		&shardOpts{version: 2, perScrape: 0},
		&shardOpts{version: 1, perScrape: 100},
		Gates{MinSamples: 10}, nil)

	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", st.Phase)
	}
	if !strings.Contains(st.Reason, "min-samples") {
		t.Fatalf("reason = %q, want a min-samples failure", st.Reason)
	}
}

// TestRolloutRollsBackWhenCanaryNeverConverges: a canary that keeps
// reporting the baseline version (not running -watch, wrong shard id)
// must not bake — the pin comes off after the converge timeout.
func TestRolloutRollsBackWhenCanaryNeverConverges(t *testing.T) {
	reg := openWithCandidate(t)
	c, err := New(Config{
		Registry:        reg,
		Candidate:       2,
		CanaryShard:     "canary-a",
		CanaryAddr:      addr(fakeShard(t, &shardOpts{version: 1, perScrape: 100})),
		BaselineAddrs:   []string{addr(fakeShard(t, &shardOpts{version: 1, perScrape: 100}))},
		Bake:            200 * time.Millisecond,
		Every:           50 * time.Millisecond,
		ConvergeTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseRolledBack {
		t.Fatalf("phase = %s, want rolled_back", st.Phase)
	}
	if !strings.Contains(st.Reason, "never reported candidate") {
		t.Fatalf("reason = %q, want a convergence failure", st.Reason)
	}
	if pins := mustPins(t, reg); len(pins) != 0 {
		t.Fatalf("pins after failed convergence = %v, want none", pins)
	}
}

// TestAbortMidBake: the cooperative abort flag unpins the canary and
// lands the rollout in aborted — without the CLI ever touching the
// manifest.
func TestAbortMidBake(t *testing.T) {
	reg := openWithCandidate(t)
	c, err := New(Config{
		Registry:        reg,
		Candidate:       2,
		CanaryShard:     "canary-a",
		CanaryAddr:      addr(fakeShard(t, &shardOpts{version: 2, perScrape: 100})),
		BaselineAddrs:   []string{addr(fakeShard(t, &shardOpts{version: 1, perScrape: 100}))},
		Bake:            30 * time.Second, // never reached; the abort ends it
		Every:           50 * time.Millisecond,
		ConvergeTimeout: 2 * time.Second,
		Gates:           Gates{MinSamples: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *State, 1)
	go func() {
		st, err := c.Run(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- st
	}()

	// Wait for the durable state to reach baking, then request the abort
	// exactly as smartctl rollout abort would.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := ReadState(reg)
		if err == nil && st != nil && st.Phase == PhaseBaking {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rollout never reached baking")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := RequestAbort(reg); err != nil {
		t.Fatal(err)
	}

	st := <-done
	if st == nil || st.Phase != PhaseAborted {
		t.Fatalf("phase = %+v, want aborted", st)
	}
	if st.Reason != "operator abort" {
		t.Fatalf("reason = %q, want operator abort", st.Reason)
	}
	if pins := mustPins(t, reg); len(pins) != 0 {
		t.Fatalf("pins after abort = %v, want none", pins)
	}
	active, err := reg.ActiveEntry()
	if err != nil {
		t.Fatal(err)
	}
	if active.Version != 1 {
		t.Fatalf("active after abort = v%d, want v1", active.Version)
	}
}

// TestRunRefusesConcurrentRollout: a durable state still in a live
// phase blocks a second controller — the registry has one writer.
func TestRunRefusesConcurrentRollout(t *testing.T) {
	reg := openWithCandidate(t)
	stale := State{SchemaVersion: 1, Phase: PhaseBaking, Candidate: 2}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(reg.Root(), StateFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Registry:      reg,
		Candidate:     2,
		CanaryShard:   "canary-a",
		CanaryAddr:    "127.0.0.1:1",
		BaselineAddrs: []string{"127.0.0.1:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("Run with a live rollout = %v, want already-in-progress error", err)
	}
}

// TestRequestAbortWithoutRollout: aborting with nothing running is an
// error, not a silently dropped flag file.
func TestRequestAbortWithoutRollout(t *testing.T) {
	reg := openWithCandidate(t)
	if err := RequestAbort(reg); err == nil || !strings.Contains(err.Error(), "no rollout in progress") {
		t.Fatalf("RequestAbort = %v, want no-rollout-in-progress error", err)
	}
}

// TestConfigValidation pins the required-field errors.
func TestConfigValidation(t *testing.T) {
	reg := openWithCandidate(t)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no registry", Config{Candidate: 2, CanaryShard: "a", CanaryAddr: "x", BaselineAddrs: []string{"y"}}},
		{"no candidate", Config{Registry: reg, CanaryShard: "a", CanaryAddr: "x", BaselineAddrs: []string{"y"}}},
		{"no shard", Config{Registry: reg, Candidate: 2, CanaryAddr: "x", BaselineAddrs: []string{"y"}}},
		{"no canary addr", Config{Registry: reg, Candidate: 2, CanaryShard: "a", BaselineAddrs: []string{"y"}}},
		{"no baseline", Config{Registry: reg, Candidate: 2, CanaryShard: "a", CanaryAddr: "x"}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
		}
	}
}

// TestRunRefusesActiveCandidate: rolling out the version that is
// already active is a no-op request, rejected up front.
func TestRunRefusesActiveCandidate(t *testing.T) {
	reg := openWithCandidate(t)
	c, err := New(Config{
		Registry:      reg,
		Candidate:     1, // already active
		CanaryShard:   "canary-a",
		CanaryAddr:    "127.0.0.1:1",
		BaselineAddrs: []string{"127.0.0.1:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "already the active") {
		t.Fatalf("Run with active candidate = %v, want already-active error", err)
	}
}
