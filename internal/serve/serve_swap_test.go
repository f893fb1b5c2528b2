package serve

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/dataset"
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
	ts := start(t, Config{Model: Model{Detector: det1, Name: "fixture", Version: 1}, Telemetry: reg}, nil)

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

// TestHotSwapWithinConnection pins epoch capture for streams that share
// one connection, and so share its compiled detector. Stream 1 opens
// under v1, and stream 0 opens and closes under v1, leaving its record
// free for reuse; after a swap to v2, stream 2 opens on the same
// connection and both send in the same flushes: each must score on its
// own epoch, and stream 2 must not take v1's freed record as v1's. A swap
// to v3, which carries v1's detector, must compile it again: stream 3,
// sending beside stream 2, scores as v1 and reports v3.
func TestHotSwapWithinConnection(t *testing.T) {
	det1, data := fixtures(t)
	det2 := candidate(t)
	const n = 64
	samples := samplesFrom(data, n)
	want1 := referenceScores(t, det1, samples)
	want2 := referenceScores(t, det2, samples)
	requireDistinct(t, want1, want2)

	ts := start(t, Config{Model: Model{Detector: det1, Version: 1}}, nil)
	c := dial(t, ts)
	// openBeside opens stream id, sends every sample on streams a and id
	// alike, eight of each per flush, and closes stream a.
	openBeside := func(a, id uint32) {
		t.Helper()
		if err := c.OpenStream(id, fmt.Sprintf("app-%d", id)); err != nil {
			t.Fatal(err)
		}
		for i, fv := range samples {
			for _, st := range []uint32{a, id} {
				if err := c.Send(st, uint32(i), fv); err != nil {
					t.Fatal(err)
				}
			}
			if i%8 == 7 {
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := c.CloseStream(a); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// collect reads frames, keeping every stream's verdicts, until
	// stream id's summary.
	verdicts := make(map[uint32][]wire.Verdict)
	collect := func(id uint32) wire.StreamSummary {
		t.Helper()
		for {
			f, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			switch fr := f.(type) {
			case wire.Verdict:
				verdicts[fr.Stream] = append(verdicts[fr.Stream], fr)
			case wire.StreamSummary:
				if fr.Stream != id {
					t.Fatalf("unexpected summary %+v", fr)
				}
				return fr
			default:
				t.Fatalf("unexpected frame %#v", f)
			}
		}
	}
	// check requires stream id's count verdicts to carry want's scores
	// and its summary to report version.
	check := func(id uint32, want []float64, count int, sum wire.StreamSummary, version uint32) {
		t.Helper()
		got := verdicts[id]
		if len(got) != count {
			t.Fatalf("stream %d got %d verdicts, want %d", id, len(got), count)
		}
		for _, v := range got {
			if v.Score != want[v.Seq] {
				t.Fatalf("stream %d verdict %d scored %v, want v%d's detector's %v", id, v.Seq, v.Score, version, want[v.Seq])
			}
		}
		if sum.ModelVersion != version || sum.Samples != uint64(count) {
			t.Fatalf("stream %d summary %+v, want v%d with %d samples", id, sum, version, count)
		}
	}

	// Stream 1 opens under v1; its first verdict proves the open landed
	// before the swap.
	if err := c.OpenStream(1, "app-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, 0, samples[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if f, err := c.Next(); err != nil {
		t.Fatal(err)
	} else if v, ok := f.(wire.Verdict); !ok || v.Stream != 1 {
		t.Fatalf("first frame %#v, want a stream 1 verdict", f)
	} else {
		verdicts[1] = append(verdicts[1], v)
	}
	// Stream 0 lives and ends under v1 before the swap.
	if err := c.OpenStream(0, "app-0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(0, 0, samples[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseStream(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	check(0, want1, 1, collect(0), 1)

	if err := ts.srv.Swap(Model{Detector: det2, Version: 2}); err != nil {
		t.Fatal(err)
	}
	openBeside(1, 2)
	check(1, want1, n+1, collect(1), 1)

	if err := ts.srv.Swap(Model{Detector: det1, Version: 3}); err != nil {
		t.Fatal(err)
	}
	openBeside(2, 3)
	check(2, want2, 2*n, collect(2), 2)
	if err := c.CloseStream(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	check(3, want1, n, collect(3), 3)
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
	ts := start(t, Config{Model: Model{Detector: det1, Version: 1}}, func(s *Server) {
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
	ts := start(t, Config{Model: Model{Detector: det, Version: 1}}, nil)

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
// and the configured shadow re-scores them against a candidate.
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
	sh, err := shadow.New(det2, shadow.Config{Version: 2, Queue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ts := start(t, Config{Model: Model{Detector: det1, Version: 1, Drift: dm}, Shadow: sh}, nil)

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
	ts.stop(t)
	rep := sh.Close()
	if rep.Scored+rep.Dropped != n {
		t.Fatalf("shadow scored %d + dropped %d, want %d offered", rep.Scored, rep.Dropped, n)
	}
	if rep.CandidateVersion != 2 {
		t.Fatalf("shadow report version %d", rep.CandidateVersion)
	}
}

// TestBindRefusesInvalidModels runs each invalid model through both ways
// in — New's Config.Model and Swap — and requires both to refuse it. Each
// case is a valid model with one part broken, and the valid model itself
// must pass both, so no refusal comes from an unrelated part. A refused
// Swap leaves the active version and serve_model_swaps_total unchanged.
func TestBindRefusesInvalidModels(t *testing.T) {
	det, data := fixtures(t)
	narrow, err := data.Select([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	monitorOver := func(d *dataset.Dataset) *drift.Monitor {
		ref, err := drift.BuildReference(d, 4)
		if err != nil {
			t.Fatal(err)
		}
		mon, err := drift.NewMonitor(ref, drift.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	// A detector one feature wider: the fixture corpus plus a constant
	// column, which training (on the Common features) ignores.
	wide := dataset.New(append(append([]string(nil), data.FeatureNames...), "constant"), data.ClassNames)
	for _, ins := range data.Instances {
		wide.Instances = append(wide.Instances, dataset.Instance{
			Features: append(append([]float64(nil), ins.Features...), 1),
			Label:    ins.Label,
		})
	}
	wideDet, err := core.Train(wide, core.TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	invalidEnv := trainEnvelope(t, data)
	invalidEnv.InvWidth[0] = -1

	valid := func() Model {
		return Model{Detector: det, Version: 9, Drift: monitorOver(data), Envelope: trainEnvelope(t, data)}
	}
	cases := []struct {
		name  string
		spoil func(*Model)
	}{
		{"nil detector", func(m *Model) { m.Detector = nil }},
		{"detector of another width", func(m *Model) { m.Detector = wideDet }},
		{"drift monitor of another width", func(m *Model) { m.Drift = monitorOver(narrow) }},
		{"envelope of another width", func(m *Model) { m.Envelope = trainEnvelope(t, narrow) }},
		{"envelope failing Validate", func(m *Model) { m.Envelope = invalidEnv }},
	}

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	if _, err := New(Config{Model: valid(), Log: quiet}); err != nil {
		t.Fatalf("New refused the valid model: %v", err)
	}
	reg := telemetry.New()
	ts := start(t, Config{Model: Model{Detector: det, Version: 1}, Telemetry: reg}, nil)
	for _, tc := range cases {
		m := valid()
		tc.spoil(&m)
		if _, err := New(Config{Model: m, Log: quiet}); err == nil {
			t.Errorf("%s: New accepted it", tc.name)
		}
		if err := ts.srv.Swap(m); err == nil {
			t.Errorf("%s: Swap accepted it", tc.name)
		}
	}
	if got := ts.srv.ActiveModel().Version; got != 1 {
		t.Fatalf("refused swaps changed the active version to %d", got)
	}
	if got := reg.Counter("serve_model_swaps_total").Value(); got != 0 {
		t.Fatalf("serve_model_swaps_total = %d after refused swaps, want 0", got)
	}
	if err := ts.srv.Swap(valid()); err != nil {
		t.Fatalf("Swap refused the valid model: %v", err)
	}
	wideShadow, err := shadow.New(wideDet, shadow.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wideShadow.Close()
	if _, err := New(Config{Model: valid(), Shadow: wideShadow, Log: quiet}); err == nil {
		t.Error("shadow of another width: New accepted it")
	}
}

// TestDriftFollowsActiveModel pins drift monitoring across a hot swap:
// drift compares live traffic with the active model's training
// distribution, so the active generation's monitor observes every scored
// sample, including those of streams opened before the swap. Otherwise
// such a stream keeps feeding the old monitor, which overwrites the
// shared drift_alert gauge that fleet status and the rollout gate read.
func TestDriftFollowsActiveModel(t *testing.T) {
	det, data := fixtures(t)
	const n = 192
	samples := samplesFrom(data, n)
	// v1 was trained on exactly this traffic; v2 on a distribution far
	// from it (every feature ×10 + 1000), so only v2's monitor alerts.
	referenceOf := func(scale func(float64) float64) *drift.Reference {
		d := dataset.New(data.FeatureNames, data.ClassNames)
		for _, fv := range samples {
			row := make([]float64, len(fv))
			for i, v := range fv {
				row[i] = scale(v)
			}
			d.Instances = append(d.Instances, dataset.Instance{Features: row})
		}
		ref, err := drift.BuildReference(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	reg := telemetry.New()
	monitorOf := func(ref *drift.Reference) *drift.Monitor {
		mon, err := drift.NewMonitor(ref, drift.Config{MinSamples: 64, RecomputeEvery: 64, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	dm1 := monitorOf(referenceOf(func(v float64) float64 { return v }))
	dm2 := monitorOf(referenceOf(func(v float64) float64 { return v*10 + 1000 }))
	ts := start(t, Config{Model: Model{Detector: det, Version: 1, Drift: dm1}, Telemetry: reg}, nil)

	// sendAll sends every sample on an open stream and reads its verdicts
	// back: the tap has observed a chunk before its verdicts go out.
	sendAll := func(c *Client, stream, seq0 uint32) {
		t.Helper()
		for i, fv := range samples {
			if err := c.Send(stream, seq0+uint32(i), fv); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < n; {
			f, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := f.(wire.Verdict); !ok {
				t.Fatalf("unexpected frame %#v", f)
			}
			got++
		}
	}

	old := dial(t, ts)
	if err := old.OpenStream(1, "app-old"); err != nil {
		t.Fatal(err)
	}
	sendAll(old, 1, 0)
	if err := ts.srv.Swap(Model{Detector: det, Version: 2, Drift: dm2}); err != nil {
		t.Fatal(err)
	}
	fresh := dial(t, ts)
	if err := fresh.OpenStream(1, "app-new"); err != nil {
		t.Fatal(err)
	}
	sendAll(fresh, 1, 0)
	alert := reg.Gauge("drift_alert")
	if alert.Value() != 1 {
		t.Fatalf("drift_alert = %v after v2 saw traffic far from its reference, want 1", alert.Value())
	}

	// The stream opened under v1 keeps scoring on v1, but its traffic is
	// live traffic for v2's drift monitor.
	sendAll(old, 1, n)
	if alert.Value() != 1 {
		t.Fatalf("drift_alert = %v after the pre-swap stream sent more, want 1: the old model's monitor overwrote it", alert.Value())
	}
	// Snapshot republishes each monitor's gauges, so it comes last.
	if got := dm1.Snapshot().Samples; got != n {
		t.Fatalf("v1's monitor saw %d samples, want the %d sent before the swap", got, n)
	}
	if got := dm2.Snapshot().Samples; got != 2*n {
		t.Fatalf("v2's monitor saw %d samples, want all %d sent after the swap", got, 2*n)
	}
}
