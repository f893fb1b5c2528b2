package monitor

import (
	"fmt"
	"sync"
	"testing"

	"twosmart/internal/telemetry"
)

// TestObserveScoredMatchesObserve pins that feeding pre-computed scores
// through ObserveScoredBatch, one at a time or as one burst, drives the
// smoothing and alarm state machine exactly as Observe would with a
// scorer producing the same scores.
func TestObserveScoredMatchesObserve(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.95, 0.8, 0.2, 0.1, 0.05, 0.99, 0.99, 0.3}
	ref, err := New(&scriptScorer{scores: scores}, Config{MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	single, err := New(constScorer(0), Config{MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := New(constScorer(0), Config{MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Event, len(scores))
	got := make([]Event, len(scores))
	for i := range scores {
		ev, err := ref.Observe([]float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev
		if err := single.ObserveScoredBatch(got[:1], scores[i:i+1]); err != nil {
			t.Fatal(err)
		}
		if got[0] != ev {
			t.Fatalf("sample %d: one-score ObserveScoredBatch %+v, Observe %+v", i, got[0], ev)
		}
	}
	if err := batch.ObserveScoredBatch(got, scores); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: batch %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := batch.ObserveScoredBatch(got[:1], scores); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestObserveScoredTelemetry checks the scored path feeds the same
// counters as the scoring path.
func TestObserveScoredTelemetry(t *testing.T) {
	reg := telemetry.New()
	m, err := New(constScorer(0), Config{Alpha: 1, MinSamples: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Event, 3)
	if err := m.ObserveScoredBatch(dst, []float64{0.9, 0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := m.ObserveScoredBatch(dst[:1], []float64{0.95}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("monitor_samples_total").Value(); got != 4 {
		t.Errorf("monitor_samples_total = %d, want 4", got)
	}
	if got := reg.Counter("monitor_alarms_raised_total").Value(); got != 2 {
		t.Errorf("monitor_alarms_raised_total = %d, want 2", got)
	}
	if got := reg.Counter("monitor_alarms_cleared_total").Value(); got != 1 {
		t.Errorf("monitor_alarms_cleared_total = %d, want 1", got)
	}
}

func TestObserveScoredZeroAlloc(t *testing.T) {
	m, err := New(constScorer(0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Event, 32)
	scores := make([]float64, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := m.ObserveScoredBatch(dst, scores); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ObserveScoredBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTrackerObserveScoredBatch checks the scored path folds into the
// same per-app summary as Observe and rejects a length mismatch.
func TestTrackerObserveScoredBatch(t *testing.T) {
	tr, err := NewTrackerFactory(func() Scorer { return &firstFeatureScorer{} }, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Event, 4)
	if err := tr.ObserveScoredBatch("a", dst, []float64{0.9, 0.9, 0.9, 0.2}); err != nil {
		t.Fatal(err)
	}
	sum, ok := tr.Close("a")
	if !ok || sum.Samples != 4 || sum.Alarms != 1 {
		t.Fatalf("summary %+v, want 4 samples and 1 alarm", sum)
	}
	if err := tr.ObserveScoredBatch("b", dst[:1], []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// statefulScorer mutates private unsynchronized state on every call, so
// any cross-goroutine sharing of one instance is a guaranteed race-report
// under -race.
type statefulScorer struct {
	calls  int
	last   float64
	stride float64
}

func (s *statefulScorer) MalwareScore(features []float64) (float64, error) {
	s.calls++
	s.last += s.stride
	if s.last > 1 {
		s.last = 0
	}
	return s.last, nil
}

// TestTrackerPerStreamIsolation pins the Tracker's concurrency contract:
// many goroutines each own one application stream and concurrently drive
// Observe (scorer-invoking) and ObserveScoredBatch against one shared
// Tracker. Run under -race (CI does) this proves that per-app
// monitors and factory-built scorers are never shared across streams;
// sharing one app between goroutines is the documented unsafe case. The
// factory records every scorer it builds, so the test can check each one
// saw exactly its own stream's calls.
func TestTrackerPerStreamIsolation(t *testing.T) {
	reg := telemetry.New()
	var (
		builtMu sync.Mutex
		built   []*statefulScorer
	)
	tr, err := NewTrackerFactory(func() Scorer {
		sc := &statefulScorer{stride: 0.13}
		builtMu.Lock()
		built = append(built, sc)
		builtMu.Unlock()
		return sc
	}, Config{MinSamples: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const streams = 12
	const rounds = 40
	const burst = 8
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := fmt.Sprintf("stream-%02d", g)
			// The goroutine's own scorer produces the pre-computed scores
			// the scored rounds feed in.
			sc := &statefulScorer{stride: 0.13}
			events := make([]Event, burst)
			scores := make([]float64, burst)
			fv := make([]float64, 1)
			for r := 0; r < rounds; r++ {
				// Half the rounds feed scores computed outside the
				// tracker; half let the monitor invoke its scorer.
				if r%2 == 0 {
					for i := range scores {
						scores[i], _ = sc.MalwareScore(fv)
					}
					if err := tr.ObserveScoredBatch(app, events, scores); err != nil {
						errs <- err
						return
					}
					continue
				}
				for i := 0; i < burst; i++ {
					if _, err := tr.Observe(app, fv); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(tr.Active()); got != streams {
		t.Fatalf("active apps = %d, want %d", got, streams)
	}
	if len(built) != streams {
		t.Fatalf("factory built %d scorers, want one per stream (%d)", len(built), streams)
	}
	for i, sc := range built {
		if want := rounds / 2 * burst; sc.calls != want {
			t.Fatalf("scorer %d saw %d calls, want %d — an instance leaked across streams", i, sc.calls, want)
		}
	}
	for _, app := range tr.Active() {
		sum, _ := tr.Close(app)
		if sum.Samples != rounds*burst {
			t.Fatalf("%s: summary has %d samples, want %d", app, sum.Samples, rounds*burst)
		}
	}
	if got := reg.Counter("monitor_samples_total").Value(); got != streams*rounds*burst {
		t.Errorf("monitor_samples_total = %d, want %d", got, streams*rounds*burst)
	}
}
