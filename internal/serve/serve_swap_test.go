package serve

import (
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/drift"
	"twosmart/internal/shadow"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

var (
	candOnce sync.Once
	candDet  *core.Detector
	candErr  error
)

// candidate trains a second detector (different seed) on the shared
// fixture corpus, so swap tests have a behaviourally distinct model.
func candidate(t *testing.T) *core.Detector {
	t.Helper()
	_, data := fixtures(t)
	candOnce.Do(func() {
		candDet, candErr = core.Train(data, core.TrainConfig{Seed: 17})
	})
	if candErr != nil {
		t.Fatal(candErr)
	}
	return candDet
}

// referenceScores runs the fused scoring pass a stream would.
func referenceScores(t *testing.T, det *core.Detector, samples [][]float64) []float64 {
	t.Helper()
	scores := make([]float64, len(samples))
	verdicts := make([]core.Verdict, len(samples))
	if err := det.Compile().DetectScoredBatch(verdicts, scores, samples); err != nil {
		t.Fatal(err)
	}
	return scores
}

// requireDistinct guards swap tests against vacuity: the two fixture
// models must disagree on at least one sample's score.
func requireDistinct(t *testing.T, a, b []float64) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			return
		}
	}
	t.Fatal("fixture models score identically on every sample; swap tests are vacuous")
}

// collectStream reads frames until the stream's summary, returning the
// verdicts and the summary.
func collectStream(t *testing.T, c *Client, stream uint32) ([]wire.Verdict, wire.StreamSummary) {
	t.Helper()
	var got []wire.Verdict
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch fr := f.(type) {
		case wire.Verdict:
			if fr.Stream == stream {
				got = append(got, fr)
			}
		case wire.StreamSummary:
			if fr.Stream == stream {
				return got, fr
			}
		default:
			t.Fatalf("unexpected frame %#v", f)
		}
	}
}

// TestHotSwapEpochs pins the zero-downtime swap contract end to end:
//   - a stream opened before the swap keeps scoring on its original
//     detector — including samples sent after the swap landed — and its
//     StreamSummary reports the original version;
//   - a connection opened after the swap is welcomed with, and scored
//     by, the new version.
func TestHotSwapEpochs(t *testing.T) {
	det1, data := fixtures(t)
	det2 := candidate(t)
	const n = 64
	samples := samplesFrom(data, n)
	want1 := referenceScores(t, det1, samples)
	want2 := referenceScores(t, det2, samples)
	requireDistinct(t, want1, want2)

	reg := telemetry.New()
	ts := start(t, Config{Detector: det1, Model: "fixture", ModelVersion: 1, Telemetry: reg}, nil)

	c1 := dial(t, ts)
	if got := c1.Welcome().ModelVersion; got != 1 {
		t.Fatalf("pre-swap welcome version %d, want 1", got)
	}
	if err := c1.OpenStream(1, "app-a"); err != nil {
		t.Fatal(err)
	}
	// First half before the swap. Reading these verdicts back proves the
	// worker opened the stream — and captured its epoch — pre-swap.
	for i := 0; i < n/2; i++ {
		if err := c1.Send(1, uint32(i), samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	var verdicts []wire.Verdict
	for len(verdicts) < n/2 {
		f, err := c1.Next()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := f.(wire.Verdict)
		if !ok {
			t.Fatalf("unexpected frame %#v", f)
		}
		verdicts = append(verdicts, v)
	}

	if err := ts.srv.Swap(Model{Detector: det2, Version: 2, Name: "candidate"}); err != nil {
		t.Fatal(err)
	}
	if got := ts.srv.ActiveModel().Version; got != 2 {
		t.Fatalf("active version %d after swap, want 2", got)
	}

	// Second half after the swap: same stream, must still score on det1.
	for i := n / 2; i < n; i++ {
		if err := c1.Send(1, uint32(i), samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.CloseStream(1); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	rest, sum := collectStream(t, c1, 1)
	verdicts = append(verdicts, rest...)
	if len(verdicts) != n {
		t.Fatalf("stream 1 got %d verdicts, want %d", len(verdicts), n)
	}
	for i, v := range verdicts {
		if v.Score != want1[i] {
			t.Fatalf("verdict %d scored %v by the wrong model epoch (v1 would give %v)", i, v.Score, want1[i])
		}
	}
	if sum.ModelVersion != 1 {
		t.Fatalf("pre-swap stream summary reports v%d, want v1", sum.ModelVersion)
	}

	// A fresh connection binds the promoted generation.
	c2 := dial(t, ts)
	if got := c2.Welcome().ModelVersion; got != 2 {
		t.Fatalf("post-swap welcome version %d, want 2", got)
	}
	if c2.Welcome().Model != "candidate" {
		t.Fatalf("post-swap welcome model %q", c2.Welcome().Model)
	}
	if err := c2.OpenStream(1, "app-b"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		if err := c2.Send(1, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.CloseStream(1); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	verdicts2, sum2 := collectStream(t, c2, 1)
	if len(verdicts2) != n {
		t.Fatalf("stream 2 got %d verdicts, want %d", len(verdicts2), n)
	}
	for i, v := range verdicts2 {
		if v.Score != want2[i] {
			t.Fatalf("post-swap verdict %d scored %v, want v2's %v", i, v.Score, want2[i])
		}
	}
	if sum2.ModelVersion != 2 {
		t.Fatalf("post-swap stream summary reports v%d, want v2", sum2.ModelVersion)
	}

	if got := reg.Counter("serve_model_swaps_total").Value(); got != 1 {
		t.Fatalf("serve_model_swaps_total = %d, want 1", got)
	}
	oldInfo := telemetry.Label(telemetry.Label("serve_model_info", "model", "fixture"), "version", "1")
	newInfo := telemetry.Label(telemetry.Label("serve_model_info", "model", "candidate"), "version", "2")
	if reg.Gauge(oldInfo).Value() != 0 || reg.Gauge(newInfo).Value() != 1 {
		t.Fatalf("model info gauges old=%v new=%v, want 0/1",
			reg.Gauge(oldInfo).Value(), reg.Gauge(newInfo).Value())
	}
}

// TestDrainWithSwapMidStream pins graceful drain while a hot swap lands
// mid-stream: samples already queued when the server starts draining are
// scored by the stream's original detector, every verdict is flushed,
// and the summary still reports the original version.
func TestDrainWithSwapMidStream(t *testing.T) {
	det1, data := fixtures(t)
	det2 := candidate(t)
	const n = 48
	samples := samplesFrom(data, n)
	want1 := referenceScores(t, det1, samples)
	requireDistinct(t, want1, referenceScores(t, det2, samples))

	entered := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	ts := start(t, Config{Detector: det1, ModelVersion: 1}, func(s *Server) {
		s.scoreHook = func() {
			gate.Do(func() {
				close(entered)
				<-release
			})
		}
	})
	c := dial(t, ts)
	if err := c.OpenStream(3, "app-drain"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		if err := c.Send(3, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Wait until the worker is inside a scoring round with samples still
	// queued behind it, then land the swap and the drain together.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started scoring")
	}
	if err := ts.srv.Swap(Model{Detector: det2, Version: 2}); err != nil {
		t.Fatal(err)
	}
	ts.cancel()
	time.Sleep(10 * time.Millisecond) // let the drain watcher close read sides
	close(release)

	var verdicts []wire.Verdict
	var sum *wire.StreamSummary
	for {
		f, err := c.Next()
		if err != nil {
			break // EOF/draining error frame path ends the read loop
		}
		switch fr := f.(type) {
		case wire.Verdict:
			verdicts = append(verdicts, fr)
		case wire.StreamSummary:
			s := fr
			sum = &s
		}
	}
	if len(verdicts) != n {
		t.Fatalf("drained %d verdicts, want %d", len(verdicts), n)
	}
	for i, v := range verdicts {
		if v.Score != want1[i] {
			t.Fatalf("drained verdict %d scored %v, want original epoch's %v", i, v.Score, want1[i])
		}
	}
	if sum == nil {
		t.Fatal("no StreamSummary flushed during drain")
	}
	if sum.ModelVersion != 1 || sum.Samples != n {
		t.Fatalf("drain summary %+v, want v1 with %d samples", sum, n)
	}
	ts.stop(t)
}

// TestSwapValidation pins the compatibility checks a swap must pass.
func TestSwapValidation(t *testing.T) {
	det, data := fixtures(t)
	ts := start(t, Config{Detector: det, ModelVersion: 1}, nil)

	if err := ts.srv.Swap(Model{}); err == nil {
		t.Fatal("swap with nil detector accepted")
	}
	narrow, err := data.Select([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := drift.BuildReference(narrow, 4)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := drift.NewMonitor(ref, drift.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.srv.Swap(Model{Detector: det, Drift: mon}); err == nil {
		t.Fatal("swap with mismatched drift monitor accepted")
	}
	if got := ts.srv.ActiveModel().Version; got != 1 {
		t.Fatalf("failed swaps changed the active version to %d", got)
	}
}

// TestServeDriftAndShadow pins the two observation taps on the scoring
// path: the active generation's drift monitor sees every scored sample,
// and an attached shadow re-scores them against a candidate.
func TestServeDriftAndShadow(t *testing.T) {
	det1, data := fixtures(t)
	det2 := candidate(t)
	ref, err := drift.BuildReference(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := drift.NewMonitor(ref, drift.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := start(t, Config{Detector: det1, ModelVersion: 1, Drift: dm}, nil)

	sh, err := shadow.New(det2, shadow.Config{Version: 2, Queue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.srv.SetShadow(sh); err != nil {
		t.Fatal(err)
	}

	const n = 96
	samples := samplesFrom(data, n)
	c := dial(t, ts)
	if err := c.OpenStream(9, "app-tap"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		if err := c.Send(9, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(9); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, sum := collectStream(t, c, 9); sum.Samples != n {
		t.Fatalf("summary %+v", sum)
	}

	if got := dm.Snapshot().Samples; got != n {
		t.Fatalf("drift monitor saw %d samples, want %d", got, n)
	}
	if err := ts.srv.SetShadow(nil); err != nil {
		t.Fatal(err)
	}
	rep := sh.Close()
	if rep.Scored+rep.Dropped != n {
		t.Fatalf("shadow scored %d + dropped %d, want %d offered", rep.Scored, rep.Dropped, n)
	}
	if rep.CandidateVersion != 2 {
		t.Fatalf("shadow report version %d", rep.CandidateVersion)
	}
}
