package monitor

import (
	"testing"

	"twosmart/internal/telemetry"
)

func TestMonitorTelemetry(t *testing.T) {
	reg := telemetry.New()
	// Script: warm up low, spike to raise the alarm, fall to clear it.
	sc := &scriptScorer{scores: []float64{0.1, 0.1, 0.9, 0.9, 0.9, 0.05, 0.05, 0.05, 0.05}}
	m, err := New(sc, Config{Alpha: 0.9, MinSamples: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	raises, clears := 0, 0
	for i := 0; i < len(sc.scores); i++ {
		ev, err := m.Observe(nil)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Changed {
			if ev.Alarm {
				raises++
			} else {
				clears++
			}
		}
	}
	if raises != 1 || clears != 1 {
		t.Fatalf("script produced raises=%d clears=%d, want 1/1", raises, clears)
	}

	rep := reg.Report("test")
	if got := rep.Counters["monitor_samples_total"]; got != uint64(len(sc.scores)) {
		t.Errorf("monitor_samples_total = %d, want %d", got, len(sc.scores))
	}
	if got := rep.Counters["monitor_alarms_raised_total"]; got != 1 {
		t.Errorf("monitor_alarms_raised_total = %d, want 1", got)
	}
	if got := rep.Counters["monitor_alarms_cleared_total"]; got != 1 {
		t.Errorf("monitor_alarms_cleared_total = %d, want 1", got)
	}
	lat := rep.Histograms["monitor_observe_seconds"]
	if lat.Count != uint64(len(sc.scores)) {
		t.Errorf("monitor_observe_seconds count = %d, want %d", lat.Count, len(sc.scores))
	}
	if lat.Count > 0 && (lat.Min < 0 || lat.Max <= 0) {
		t.Errorf("latency min/max = %v/%v", lat.Min, lat.Max)
	}
}

func TestTrackerActiveGauge(t *testing.T) {
	reg := telemetry.New()
	tr, err := NewTrackerFactory(func() Scorer { return constScorer(0.2) }, Config{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	active := func() float64 { return reg.Report("test").Gauges["monitor_active_apps"] }
	if got := active(); got != 0 {
		t.Fatalf("initial active = %v", got)
	}
	for _, app := range []string{"a", "b", "c"} {
		if _, err := tr.Observe(app, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Re-observing an existing app must not bump the gauge again.
	if _, err := tr.Observe("a", nil); err != nil {
		t.Fatal(err)
	}
	if got := active(); got != 3 {
		t.Fatalf("active after 3 apps = %v, want 3", got)
	}
	tr.Close("b")
	if got := active(); got != 2 {
		t.Fatalf("active after close = %v, want 2", got)
	}
	// Closing an unknown app is a no-op.
	tr.Close("zzz")
	if got := active(); got != 2 {
		t.Fatalf("active after bogus close = %v, want 2", got)
	}
}

func TestMonitorNilTelemetryUntimed(t *testing.T) {
	m, err := New(constScorer(0.2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.timed {
		t.Fatal("monitor with nil telemetry must not be timed")
	}
	if _, err := m.Observe(nil); err != nil {
		t.Fatal(err)
	}
}
