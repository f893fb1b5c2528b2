// Package monitor is the run-time deployment layer around a trained
// detector: it turns the noisy per-10 ms-sample malware scores of a
// 2SMaRT detector into stable alarms using exponential smoothing and
// hysteresis, and tracks many concurrently running applications. This is
// the piece a system integrator would connect to the counter-sampling
// interrupt on real hardware.
package monitor

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"twosmart/internal/telemetry"
)

// Scorer produces a malware-ness score in [0,1] for one sample.
// *core.Detector satisfies this interface via MalwareScore, and
// *core.CompiledDetector is its allocation-free lowering — wrap the
// compiled form (see monitor.NewTrackerFactory and the twosmart facade)
// when the monitor sits on the 10 ms sampling hot path.
type Scorer interface {
	MalwareScore(features []float64) (float64, error)
}

// Config tunes the smoothing and alarm behaviour.
type Config struct {
	// Alpha is the EWMA coefficient in (0,1]; higher reacts faster
	// (default 0.3).
	Alpha float64
	// RaiseThreshold and ClearThreshold implement hysteresis: the alarm
	// raises when the smoothed score exceeds RaiseThreshold and clears
	// only when it falls below ClearThreshold (defaults 0.6 and 0.4).
	RaiseThreshold float64
	ClearThreshold float64
	// MinSamples is the warm-up period before any alarm can raise
	// (default 3 samples = 30 ms).
	MinSamples int
	// Telemetry, when non-nil, records run-time detection metrics: the
	// monitor_observe_seconds latency histogram, the sample/alarm
	// counters, and (for Tracker and session.Scoring) the
	// monitor_active_apps gauge. When nil — the default — the Observe hot
	// path pays only a branch (see BenchmarkObserve in internal/telemetry).
	Telemetry *telemetry.Registry
}

// Validate reports whether New would accept the config.
func (c Config) Validate() error {
	_, err := c.fill()
	return err
}

func (c Config) fill() (Config, error) {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("monitor: alpha %v outside (0,1]", c.Alpha)
	}
	if c.RaiseThreshold == 0 {
		c.RaiseThreshold = 0.6
	}
	if c.ClearThreshold == 0 {
		c.ClearThreshold = 0.4
	}
	if c.ClearThreshold > c.RaiseThreshold {
		return c, fmt.Errorf("monitor: clear threshold %v above raise threshold %v", c.ClearThreshold, c.RaiseThreshold)
	}
	if c.MinSamples == 0 {
		c.MinSamples = 3
	}
	if c.MinSamples < 0 {
		return c, fmt.Errorf("monitor: negative warm-up %d", c.MinSamples)
	}
	return c, nil
}

// Event is the monitor's output for one observed sample.
type Event struct {
	// Sample is the 0-based sample index within this monitor.
	Sample int
	// Score is the detector's raw malware score for this sample.
	Score float64
	// Smoothed is the EWMA of scores so far.
	Smoothed float64
	// Alarm reports whether the malware alarm is currently raised.
	Alarm bool
	// Changed reports whether this sample raised or cleared the alarm.
	Changed bool
}

// Monitor smooths one application's score stream.
type Monitor struct {
	scorer  Scorer
	cfg     Config
	samples int
	ewma    float64
	alarm   bool

	// Telemetry instruments, populated only when cfg.Telemetry is set;
	// timed guards every use so the disabled hot path costs one branch.
	timed    bool
	latency  telemetry.Histogram
	observed telemetry.Counter
	raised   telemetry.Counter
	cleared  telemetry.Counter
}

// New builds a monitor over a scorer.
func New(s Scorer, cfg Config) (*Monitor, error) {
	if s == nil {
		return nil, errors.New("monitor: nil scorer")
	}
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return newMonitor(s, filled), nil
}

// newMonitor builds a monitor from an already-validated config.
func newMonitor(s Scorer, filled Config) *Monitor {
	m := &Monitor{scorer: s, cfg: filled}
	if reg := filled.Telemetry; reg.Enabled() {
		m.timed = true
		m.latency = reg.Histogram("monitor_observe_seconds", telemetry.LatencyBuckets)
		m.observed = reg.Counter("monitor_samples_total")
		m.raised = reg.Counter("monitor_alarms_raised_total")
		m.cleared = reg.Counter("monitor_alarms_cleared_total")
	}
	return m
}

// Observe feeds one sample and returns the resulting event.
//
// Aliasing contract: features is caller-owned — it is only read during the
// call, never retained and never modified, so the caller may reuse one
// buffer across the whole sample stream (the sampling interrupt path does
// exactly that). With telemetry disabled (the default) and a compiled
// scorer (see core.Detector.Compile), Observe performs zero heap
// allocations per sample; TestObserveZeroAlloc in this package and
// BenchmarkObserve in internal/telemetry pin that contract.
func (m *Monitor) Observe(features []float64) (Event, error) {
	var t0 time.Time
	if m.timed {
		t0 = time.Now()
	}
	score, err := m.scorer.MalwareScore(features)
	if err != nil {
		return Event{}, err
	}
	// The smoothing/alarm logic is step() written out inline: step costs
	// more than the compiler's inlining budget, and the call overhead is
	// measurable on this path (BenchmarkObserve pins disabled-telemetry
	// Observe within a few ns of an uninstrumented baseline).
	if m.samples == 0 {
		m.ewma = score
	} else {
		m.ewma = m.cfg.Alpha*score + (1-m.cfg.Alpha)*m.ewma
	}
	ev := Event{Sample: m.samples, Score: score, Smoothed: m.ewma}
	m.samples++

	prev := m.alarm
	if m.samples >= m.cfg.MinSamples && !m.alarm && m.ewma > m.cfg.RaiseThreshold {
		m.alarm = true
	} else if m.alarm && m.ewma < m.cfg.ClearThreshold {
		m.alarm = false
	}
	ev.Alarm = m.alarm
	ev.Changed = m.alarm != prev
	if m.timed {
		m.latency.ObserveDuration(time.Since(t0))
		m.observed.Inc()
		m.countTransition(ev)
	}
	return ev, nil
}

// step advances the EWMA and alarm state machine by one scored sample; it
// must mirror the inline copy in Observe exactly (TestObserveScoredMatchesObserve
// compares the two paths event by event).
func (m *Monitor) step(score float64) Event {
	if m.samples == 0 {
		m.ewma = score
	} else {
		m.ewma = m.cfg.Alpha*score + (1-m.cfg.Alpha)*m.ewma
	}
	ev := Event{Sample: m.samples, Score: score, Smoothed: m.ewma}
	m.samples++

	prev := m.alarm
	if m.samples >= m.cfg.MinSamples && !m.alarm && m.ewma > m.cfg.RaiseThreshold {
		m.alarm = true
	} else if m.alarm && m.ewma < m.cfg.ClearThreshold {
		m.alarm = false
	}
	ev.Alarm = m.alarm
	ev.Changed = m.alarm != prev
	return ev
}

func (m *Monitor) countTransition(ev Event) {
	if !ev.Changed {
		return
	}
	if ev.Alarm {
		m.raised.Inc()
	} else {
		m.cleared.Inc()
	}
}

// ObserveScoredBatch advances the smoothing and alarm state machine with
// a burst of scores that were already computed elsewhere, in order,
// writing the per-sample events into dst; dst and scores must have equal
// length. The monitor's scorer is not invoked. This is the serving-layer
// path: the server produces full verdicts and malware scores in one
// batch evaluation (core.CompiledDetector.DetectScoredBatch) and feeds
// the scores here, so each sample is scored exactly once. The call
// performs no heap allocations, and the same single-goroutine ownership
// rules as Observe apply.
func (m *Monitor) ObserveScoredBatch(dst []Event, scores []float64) error {
	if len(dst) != len(scores) {
		return fmt.Errorf("monitor: ObserveScoredBatch dst has %d slots, want %d", len(dst), len(scores))
	}
	for i, score := range scores {
		dst[i] = m.step(score)
	}
	if m.timed {
		m.observed.Add(uint64(len(scores)))
		for _, ev := range dst {
			m.countTransition(ev)
		}
	}
	return nil
}

// Samples returns how many samples this monitor has observed.
func (m *Monitor) Samples() int { return m.samples }

// Alarmed reports the current alarm state.
func (m *Monitor) Alarmed() bool { return m.alarm }

// Reset returns the monitor to its initial state.
func (m *Monitor) Reset() {
	m.samples = 0
	m.ewma = 0
	m.alarm = false
}

// Summary aggregates one application's monitoring session.
type Summary struct {
	App         string
	Samples     int
	Alarms      int // number of raise transitions
	AlarmActive bool
	MaxSmoothed float64
}

// Add folds one event into the session summary.
func (s *Summary) Add(ev Event) {
	s.Samples++
	if ev.Changed && ev.Alarm {
		s.Alarms++
	}
	s.AlarmActive = ev.Alarm
	if ev.Smoothed > s.MaxSmoothed {
		s.MaxSmoothed = ev.Smoothed
	}
}

// Tracker monitors many applications concurrently, one Monitor per
// application key.
//
// Concurrency contract: the Tracker's own maps and summaries are
// mutex-guarded, so goroutines may call any method for *different*
// application keys concurrently. But each application's Monitor (and the
// scorer the factory created for it) is unsynchronized: concurrent
// Observe/ObserveScoredBatch calls for the *same* application key race
// on the EWMA state and the scorer's scratch space. Every application
// stream must therefore be owned by one goroutine at a time;
// TestTrackerPerStreamIsolation pins the safe side of this contract
// under the race detector.
type Tracker struct {
	factory func() Scorer
	cfg     Config
	active  telemetry.Gauge // monitor_active_apps; nil-safe no-op when untracked

	mu       sync.Mutex
	monitors map[string]*Monitor
	stats    map[string]*Summary
}

// NewTrackerFactory builds a tracker that calls factory once per tracked
// application, so each application's monitor owns an independent scorer.
// This is how compiled detectors — which own scratch space and are not
// concurrent-safe — are deployed across many applications: pass
// func() monitor.Scorer { return det.Compile() } and every application
// gets its own allocation-free instance.
func NewTrackerFactory(factory func() Scorer, cfg Config) (*Tracker, error) {
	if factory == nil {
		return nil, errors.New("monitor: nil scorer factory")
	}
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return &Tracker{
		factory:  factory,
		cfg:      filled,
		active:   filled.Telemetry.Gauge("monitor_active_apps"),
		monitors: make(map[string]*Monitor),
		stats:    make(map[string]*Summary),
	}, nil
}

// monitorFor returns (creating if needed) the monitor and summary for app.
func (t *Tracker) monitorFor(app string) (*Monitor, *Summary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.monitors[app]
	if !ok {
		m = newMonitor(t.factory(), t.cfg)
		t.monitors[app] = m
		t.stats[app] = &Summary{App: app}
		t.active.Add(1)
	}
	return m, t.stats[app]
}

// Observe feeds one sample for the given application. The features slice
// is only read during the call (see Monitor.Observe for the full aliasing
// contract), so callers may reuse one buffer across all applications.
func (t *Tracker) Observe(app string, features []float64) (Event, error) {
	m, st := t.monitorFor(app)

	// Per-monitor observation is not concurrent for the same app key;
	// callers stream one app's samples in order. Cross-app calls only
	// share the maps guarded in monitorFor and the stats updated below.
	ev, err := m.Observe(features)
	if err != nil {
		return Event{}, err
	}
	t.mu.Lock()
	st.Add(ev)
	t.mu.Unlock()
	return ev, nil
}

// ObserveScoredBatch feeds a burst of pre-computed scores for one
// application (see Monitor.ObserveScoredBatch), writing the per-sample
// events into dst and folding them into the application's summary. The
// application's scorer is not invoked.
func (t *Tracker) ObserveScoredBatch(app string, dst []Event, scores []float64) error {
	m, st := t.monitorFor(app)
	if err := m.ObserveScoredBatch(dst, scores); err != nil {
		return err
	}
	t.mu.Lock()
	for _, ev := range dst {
		st.Add(ev)
	}
	t.mu.Unlock()
	return nil
}

// Close removes an application and returns its session summary.
func (t *Tracker) Close(app string) (Summary, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.stats[app]
	if !ok {
		return Summary{}, false
	}
	delete(t.monitors, app)
	delete(t.stats, app)
	t.active.Add(-1)
	return *st, true
}

// Active returns the currently tracked application keys, sorted.
func (t *Tracker) Active() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.monitors))
	for app := range t.monitors {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// Alarmed returns the tracked applications whose alarm is currently raised,
// sorted.
func (t *Tracker) Alarmed() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for app, st := range t.stats {
		if st.AlarmActive {
			out = append(out, app)
		}
	}
	sort.Strings(out)
	return out
}
