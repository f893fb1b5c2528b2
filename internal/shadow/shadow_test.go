package shadow

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/parallel"
	"twosmart/internal/telemetry"
)

var (
	fixOnce sync.Once
	fixErr  error
	fixData *dataset.Dataset
	fixDets [2]*core.Detector
)

func fixtures(t *testing.T) (*core.Detector, *core.Detector, *dataset.Dataset) {
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
		fixData, err = data.SelectByName(core.CommonFeatures)
		if err != nil {
			fixErr = err
			return
		}
		for i, seed := range []int64{5, 17} {
			fixDets[i], fixErr = core.Train(fixData, core.TrainConfig{Seed: seed})
			if fixErr != nil {
				return
			}
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDets[0], fixDets[1], fixData
}

// offerAll scores every dataset sample with the live detector and offers
// the results in chunks of size samples, the way the serving tier does.
// The verdict and score buffers are reused, so the shadow must copy them.
func offerAll(t *testing.T, s *Shadow, live *core.CompiledDetector, d *dataset.Dataset, size int) {
	t.Helper()
	samples := featuresOf(d)
	verdicts := make([]core.Verdict, size)
	scores := make([]float64, size)
	for lo := 0; lo < len(samples); lo += size {
		chunk := samples[lo:min(lo+size, len(samples))]
		n := len(chunk)
		if err := live.DetectScoredBatch(verdicts[:n], scores[:n], chunk); err != nil {
			t.Fatal(err)
		}
		s.Offer(chunk, verdicts[:n], scores[:n])
	}
}

func featuresOf(d *dataset.Dataset) [][]float64 {
	samples := make([][]float64, len(d.Instances))
	for i, ins := range d.Instances {
		samples[i] = ins.Features
	}
	return samples
}

// TestShadowAgainstItself pins the zero-divergence baseline: a candidate
// identical to the live model must disagree on nothing.
func TestShadowAgainstItself(t *testing.T) {
	live, _, data := fixtures(t)
	s, err := New(live, Config{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	offerAll(t, s, live.Compile(), data, 16)
	rep := s.Close()
	if rep.Scored == 0 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Disagreements != 0 || rep.VerdictDivergence != 0 {
		t.Fatalf("self-shadow diverged: %+v", rep)
	}
	if rep.MaxScoreDelta != 0 || rep.MeanAbsScoreDelta != 0 {
		t.Fatalf("self-shadow score deltas nonzero: %+v", rep)
	}
	if rep.CandidateVersion != 1 {
		t.Fatalf("candidate version %d", rep.CandidateVersion)
	}
}

// TestShadowDetectsDivergence pins that two differently-seeded models
// produce a measured, per-class-attributed divergence, mirrored into
// telemetry.
func TestShadowDetectsDivergence(t *testing.T) {
	live, cand, data := fixtures(t)
	reg := telemetry.New()
	s, err := New(cand, Config{Version: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	offerAll(t, s, live.Compile(), data, 16)
	rep := s.Close()
	if rep.Scored != uint64(len(data.Instances))-rep.Dropped {
		t.Fatalf("scored %d + dropped %d != offered %d", rep.Scored, rep.Dropped, len(data.Instances))
	}
	if rep.MaxScoreDelta <= 0 {
		t.Fatalf("distinct models produced identical scores everywhere: %+v", rep)
	}
	var perClass uint64
	for _, cs := range rep.PerClass {
		perClass += cs.Observed
	}
	if perClass != rep.Scored {
		t.Fatalf("per-class observed %d != scored %d", perClass, rep.Scored)
	}
	if got := reg.Counter("shadow_observed_total").Value(); got != rep.Scored {
		t.Fatalf("shadow_observed_total = %d, want %d", got, rep.Scored)
	}
	if got := reg.Gauge("shadow_divergence").Value(); got != rep.VerdictDivergence {
		t.Fatalf("shadow_divergence = %v, want %v", got, rep.VerdictDivergence)
	}
}

// TestOfferNeverBlocks pins the shed-before-backpressure contract: with a
// tiny queue and no drain headroom, Offer keeps returning immediately and
// the report accounts for every sample as scored or dropped.
func TestOfferNeverBlocks(t *testing.T) {
	live, cand, data := fixtures(t)
	s, err := New(cand, Config{Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		offerAll(t, s, live.Compile(), data, 1)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Offer blocked")
	}
	rep := s.Close()
	if rep.Scored+rep.Dropped != uint64(len(data.Instances)) {
		t.Fatalf("scored %d + dropped %d != offered %d", rep.Scored, rep.Dropped, len(data.Instances))
	}
}

// TestOfferAfterClose pins that a closed shadow refuses samples instead
// of panicking or hanging.
func TestOfferAfterClose(t *testing.T) {
	live, _, data := fixtures(t)
	s, err := New(live, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.Offer(featuresOf(data)[:1], make([]core.Verdict, 1), make([]float64, 1)) {
		t.Fatal("closed shadow accepted a sample")
	}
	s.Close() // idempotent
}

// TestEvaluate pins the offline comparator: self-diff is zero, and a
// 4-worker cross-diff equals a sequential streaming shadow on the same
// data field for field — the fold runs in sample order at any worker
// count.
func TestEvaluate(t *testing.T) {
	live, cand, data := fixtures(t)
	samples := featuresOf(data)

	self, err := Evaluate(context.Background(), live, live, samples, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if self.Disagreements != 0 || self.MaxScoreDelta != 0 {
		t.Fatalf("self-evaluate diverged: %+v", self)
	}
	if self.Scored != uint64(len(samples)) {
		t.Fatalf("self-evaluate scored %d of %d", self.Scored, len(samples))
	}

	cross, err := Evaluate(context.Background(), live, cand, samples, parallel.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cand, Config{Queue: len(samples)})
	if err != nil {
		t.Fatal(err)
	}
	offerAll(t, ref, live.Compile(), data, 16)
	want := ref.Close()
	if !reflect.DeepEqual(cross, want) {
		t.Fatalf("parallel evaluate %+v != streaming shadow %+v", cross, want)
	}

	if _, err := Evaluate(context.Background(), live, cand, nil, parallel.Options{}); err == nil {
		t.Fatal("empty sample set accepted")
	}
}

// TestOfferDropsWholeChunk pins that Config.Queue bounds queued samples,
// not chunks: a chunk that would take the queued samples past the bound
// is dropped whole and its samples are counted, while a chunk that fits
// is scored.
func TestOfferDropsWholeChunk(t *testing.T) {
	live, cand, data := fixtures(t)
	samples := featuresOf(data)[:11]
	verdicts, scores, err := live.DetectAll(context.Background(), samples, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s, err := New(cand, Config{Queue: 10, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	offer := func(lo, hi int) bool { return s.Offer(samples[lo:hi], verdicts[lo:hi], scores[lo:hi]) }
	// Hold the fold lock and let the drain take a one-sample chunk: it
	// then waits on the lock, so everything offered next stays queued.
	s.mu.Lock()
	if !offer(10, 11) {
		t.Error("an empty queue refused 1 sample")
	}
	for deadline := time.Now().Add(10 * time.Second); s.queued.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if s.queued.Load() != 0 {
		s.mu.Unlock()
		t.Fatal("the drain never took the first chunk")
	}
	if offer(0, 11) {
		t.Error("an 11-sample chunk entered a 10-sample queue")
	}
	if !offer(0, 6) {
		t.Error("an empty queue refused 6 samples")
	}
	if offer(6, 11) {
		t.Error("5 more samples entered a queue holding 6 of 10")
	}
	if !offer(6, 10) {
		t.Error("a queue holding 6 of 10 refused 4 more samples")
	}
	s.mu.Unlock()
	rep := s.Close()
	if rep.Scored != 11 || rep.Dropped != 16 {
		t.Fatalf("scored %d, dropped %d; want 11 scored, 16 dropped", rep.Scored, rep.Dropped)
	}
	if got := reg.Counter("shadow_dropped_total").Value(); got != 16 {
		t.Fatalf("shadow_dropped_total = %d, want 16", got)
	}
	if got := reg.Counter("shadow_observed_total").Value(); got != 11 {
		t.Fatalf("shadow_observed_total = %d, want 11", got)
	}
}

// countHook counts the pool tasks a fan-out starts.
type countHook struct{ started atomic.Int64 }

func (h *countHook) TaskStart(int, time.Duration)       { h.started.Add(1) }
func (h *countHook) TaskDone(int, time.Duration, error) {}

// TestEvaluateDefaultWorkers pins that Workers 0 means NumCPU: each
// model's scoring splits the samples into min(NumCPU, len) chunks, one
// pool task each.
func TestEvaluateDefaultWorkers(t *testing.T) {
	live, cand, data := fixtures(t)
	samples := featuresOf(data)
	var hook countHook
	if _, err := Evaluate(context.Background(), live, cand, samples, parallel.Options{Hook: &hook}); err != nil {
		t.Fatal(err)
	}
	if got, want := hook.started.Load(), int64(2*min(runtime.NumCPU(), len(samples))); got != want {
		t.Fatalf("Workers 0 started %d tasks over %d samples, want %d", got, len(samples), want)
	}
}
