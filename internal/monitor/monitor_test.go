package monitor

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// scriptScorer returns a scripted sequence of scores; the feature vector's
// first element selects the script position when non-negative.
type scriptScorer struct {
	scores []float64
	pos    int
}

func (s *scriptScorer) MalwareScore(features []float64) (float64, error) {
	if len(features) > 0 && features[0] < 0 {
		return 0, errors.New("scripted failure")
	}
	v := s.scores[s.pos%len(s.scores)]
	s.pos++
	return v, nil
}

// constScorer always returns the same score.
type constScorer float64

func (c constScorer) MalwareScore([]float64) (float64, error) { return float64(c), nil }

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil scorer accepted")
	}
	bad := []Config{
		{Alpha: -1},
		{Alpha: 2},
		{RaiseThreshold: 0.3, ClearThreshold: 0.5},
		{MinSamples: -1},
	}
	for _, cfg := range bad {
		if _, err := New(constScorer(0.5), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := New(constScorer(0.5), Config{}); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestAlarmRaisesAfterWarmup(t *testing.T) {
	m, err := New(constScorer(0.95), Config{MinSamples: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ev, err := m.Observe(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Alarm {
			t.Fatalf("alarm raised during warm-up at sample %d", i)
		}
	}
	ev, _ := m.Observe(nil)
	if !ev.Alarm || !ev.Changed {
		t.Fatalf("alarm did not raise after warm-up: %+v", ev)
	}
	ev, _ = m.Observe(nil)
	if !ev.Alarm || ev.Changed {
		t.Fatalf("alarm must stay raised without a new transition: %+v", ev)
	}
	if !m.Alarmed() || m.Samples() != 4 {
		t.Fatal("monitor state wrong")
	}
}

func TestHysteresis(t *testing.T) {
	// Score oscillates around the raise threshold; hysteresis must keep
	// the alarm stable once raised until the score drops well below.
	script := &scriptScorer{scores: []float64{
		0.9, 0.9, 0.9, // raise
		0.55, 0.55, 0.55, // inside the hysteresis band: stays raised
		0.05, 0.05, 0.05, 0.05, // clears
	}}
	m, err := New(script, Config{Alpha: 0.5, RaiseThreshold: 0.6, ClearThreshold: 0.4, MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for i := 0; i < 10; i++ {
		ev, err := m.Observe(nil)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if !events[0].Alarm {
		t.Fatal("alarm did not raise immediately with MinSamples=1")
	}
	for i := 3; i < 6; i++ {
		if !events[i].Alarm {
			t.Fatalf("alarm dropped inside hysteresis band at %d", i)
		}
	}
	if events[9].Alarm {
		t.Fatal("alarm did not clear after sustained low scores")
	}
	raises := 0
	for _, ev := range events {
		if ev.Changed && ev.Alarm {
			raises++
		}
	}
	if raises != 1 {
		t.Fatalf("alarm raised %d times, want exactly 1 (hysteresis)", raises)
	}
}

func TestEWMASmoothing(t *testing.T) {
	script := &scriptScorer{scores: []float64{1, 0, 0, 0}}
	m, _ := New(script, Config{Alpha: 0.5, MinSamples: 1})
	ev, _ := m.Observe(nil)
	if ev.Smoothed != 1 {
		t.Fatalf("first sample seeds the EWMA: %v", ev.Smoothed)
	}
	ev, _ = m.Observe(nil)
	if math.Abs(ev.Smoothed-0.5) > 1e-12 {
		t.Fatalf("smoothed=%v, want 0.5", ev.Smoothed)
	}
	ev, _ = m.Observe(nil)
	if math.Abs(ev.Smoothed-0.25) > 1e-12 {
		t.Fatalf("smoothed=%v, want 0.25", ev.Smoothed)
	}
}

func TestObserveError(t *testing.T) {
	m, _ := New(&scriptScorer{scores: []float64{0.5}}, Config{})
	if _, err := m.Observe([]float64{-1}); err == nil {
		t.Fatal("scorer error swallowed")
	}
}

func TestReset(t *testing.T) {
	m, _ := New(constScorer(0.99), Config{MinSamples: 1})
	m.Observe(nil)
	m.Observe(nil)
	if !m.Alarmed() {
		t.Fatal("expected alarm")
	}
	m.Reset()
	if m.Alarmed() || m.Samples() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestTrackerPerAppIsolation(t *testing.T) {
	tr, err := NewTrackerFactory(func() Scorer { return constScorer(0.9) }, Config{MinSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	// App A gets enough samples to alarm; app B does not.
	for i := 0; i < 4; i++ {
		if _, err := tr.Observe("a", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Observe("b", nil); err != nil {
		t.Fatal(err)
	}
	alarmed := tr.Alarmed()
	if len(alarmed) != 1 || alarmed[0] != "a" {
		t.Fatalf("alarmed=%v, want [a]", alarmed)
	}
	active := tr.Active()
	if len(active) != 2 || active[0] != "a" || active[1] != "b" {
		t.Fatalf("active=%v", active)
	}

	sum, ok := tr.Close("a")
	if !ok {
		t.Fatal("close failed")
	}
	if sum.Samples != 4 || sum.Alarms != 1 || !sum.AlarmActive {
		t.Fatalf("summary %+v", sum)
	}
	if _, ok := tr.Close("a"); ok {
		t.Fatal("double close succeeded")
	}
	if len(tr.Active()) != 1 {
		t.Fatal("close did not remove the app")
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTrackerFactory(func() Scorer { return constScorer(0) }, Config{Alpha: 5}); err == nil {
		t.Fatal("bad config accepted")
	}
}

// firstFeatureScorer scores each sample as its first feature value.
type firstFeatureScorer struct{}

func (firstFeatureScorer) MalwareScore(features []float64) (float64, error) {
	return features[0], nil
}

func TestObserveZeroAlloc(t *testing.T) {
	m, err := New(firstFeatureScorer{}, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	fv := []float64{0.3}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.Observe(fv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Observe allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTrackerFactoryPerApp(t *testing.T) {
	if _, err := NewTrackerFactory(nil, Config{}); err == nil {
		t.Fatal("nil factory accepted")
	}
	built := 0
	tr, err := NewTrackerFactory(func() Scorer {
		built++
		return firstFeatureScorer{}
	}, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	fv := []float64{0.9}
	for i := 0; i < 3; i++ {
		if _, err := tr.Observe("a", fv); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Observe("b", fv); err != nil {
			t.Fatal(err)
		}
	}
	if built != 2 {
		t.Fatalf("factory built %d scorers, want one per app (2)", built)
	}
}

func TestTrackerConcurrentApps(t *testing.T) {
	tr, err := NewTrackerFactory(func() Scorer { return constScorer(0.7) }, Config{MinSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := string(rune('a' + g))
			for i := 0; i < 100; i++ {
				if _, err := tr.Observe(app, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(tr.Active()) != 8 {
		t.Fatalf("active=%d, want 8", len(tr.Active()))
	}
	for _, app := range tr.Active() {
		sum, _ := tr.Close(app)
		if sum.Samples != 100 {
			t.Fatalf("%s samples=%d", app, sum.Samples)
		}
	}
}
