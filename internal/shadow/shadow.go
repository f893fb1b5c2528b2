// Package shadow scores a candidate model side-by-side with the live one
// so an operator can measure how a new registry version would behave on
// real traffic before promoting it. The live path stays untouched: the
// serving tier hands each scored sample (features plus the primary
// verdict) to a Shadow, which copies it into a bounded queue and returns
// immediately; a drain goroutine re-scores the sample with the candidate
// off the hot path and accumulates divergence statistics. When the queue
// is full the sample is dropped and counted — shadow scoring sheds load
// before it can ever back-pressure live detection.
//
// For offline comparison (cmd/smartctl diff), Evaluate scores a replayed
// sample set under both models at once, fanned out through the shared
// worker pool.
package shadow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"twosmart/internal/core"
	"twosmart/internal/parallel"
	"twosmart/internal/telemetry"
)

// DefaultQueue is the bounded queue depth when Config.Queue is zero.
const DefaultQueue = 1024

// Config tunes a streaming Shadow.
type Config struct {
	// Queue bounds the copy-in queue; offers beyond it are dropped and
	// counted, never blocked on. Defaults to DefaultQueue.
	Queue int
	// Version is the candidate's registry version, echoed in reports.
	Version int
	// Telemetry receives shadow_* instruments; nil disables.
	Telemetry *telemetry.Registry
}

// Primary is the live path's decision for one sample, the baseline the
// candidate is compared against.
type Primary struct {
	Malware bool
	Class   string  // primary's predicted class name, keys per-class stats
	Score   float64 // primary's malware ranking score
}

type observation struct {
	features []float64 // owned copy
	primary  Primary
}

// ClassStat is the divergence of one primary-predicted class.
type ClassStat struct {
	Observed     uint64  `json:"observed"`
	Disagreed    uint64  `json:"disagreed"`
	MeanAbsDelta float64 `json:"mean_abs_delta"`
}

// Report summarises a shadow run. VerdictDivergence is the fraction of
// scored samples where the candidate's malware decision differed from
// the live model's.
type Report struct {
	CandidateVersion  int                  `json:"candidate_version,omitempty"`
	Scored            uint64               `json:"scored"`
	Dropped           uint64               `json:"dropped"`
	Errors            uint64               `json:"errors"`
	Disagreements     uint64               `json:"disagreements"`
	VerdictDivergence float64              `json:"verdict_divergence"`
	MeanAbsScoreDelta float64              `json:"mean_abs_score_delta"`
	MaxScoreDelta     float64              `json:"max_score_delta"`
	PerClass          map[string]ClassStat `json:"per_class,omitempty"`
}

// Stats accumulates a candidate's divergence from primary decisions:
// live shadow scoring, offline Evaluate and log backtests all fold
// samples into one and emit its Report. Accumulators from parallel
// workers combine with Merge. The zero value is ready to use; a Stats is
// not safe for concurrent use.
type Stats struct {
	scored        uint64
	errors        uint64
	disagreements uint64
	sumAbsDelta   float64
	maxDelta      float64
	perClass      map[string]*classAcc
}

type classAcc struct {
	observed    uint64
	disagreed   uint64
	sumAbsDelta float64
}

// class returns the per-class accumulator for name, creating it.
func (st *Stats) class(name string) *classAcc {
	if st.perClass == nil {
		st.perClass = make(map[string]*classAcc)
	}
	ca := st.perClass[name]
	if ca == nil {
		ca = &classAcc{}
		st.perClass[name] = ca
	}
	return ca
}

// Observe scores one sample with the candidate and folds the comparison
// with the primary decision p into the accumulator.
func (st *Stats) Observe(cand *core.CompiledDetector, features []float64, p Primary) {
	v, err := cand.Detect(features)
	if err != nil {
		st.errors++
		return
	}
	score, err := cand.MalwareScore(features)
	if err != nil {
		st.errors++
		return
	}
	st.scored++
	delta := math.Abs(score - p.Score)
	st.sumAbsDelta += delta
	if delta > st.maxDelta {
		st.maxDelta = delta
	}
	ca := st.class(p.Class)
	ca.observed++
	ca.sumAbsDelta += delta
	if v.Malware != p.Malware {
		st.disagreements++
		ca.disagreed++
	}
}

// Merge folds another accumulator into st.
func (st *Stats) Merge(o Stats) {
	st.scored += o.scored
	st.errors += o.errors
	st.disagreements += o.disagreements
	st.sumAbsDelta += o.sumAbsDelta
	if o.maxDelta > st.maxDelta {
		st.maxDelta = o.maxDelta
	}
	for name, ca := range o.perClass {
		dst := st.class(name)
		dst.observed += ca.observed
		dst.disagreed += ca.disagreed
		dst.sumAbsDelta += ca.sumAbsDelta
	}
}

// Report summarises the accumulated divergence for candidate version,
// with dropped counting samples that never reached the accumulator.
func (st *Stats) Report(version int, dropped uint64) Report {
	rep := Report{
		CandidateVersion: version,
		Scored:           st.scored,
		Dropped:          dropped,
		Errors:           st.errors,
		Disagreements:    st.disagreements,
		MaxScoreDelta:    st.maxDelta,
	}
	if st.scored > 0 {
		rep.VerdictDivergence = float64(st.disagreements) / float64(st.scored)
		rep.MeanAbsScoreDelta = st.sumAbsDelta / float64(st.scored)
	}
	if len(st.perClass) > 0 {
		rep.PerClass = make(map[string]ClassStat, len(st.perClass))
		for name, ca := range st.perClass {
			cs := ClassStat{Observed: ca.observed, Disagreed: ca.disagreed}
			if ca.observed > 0 {
				cs.MeanAbsDelta = ca.sumAbsDelta / float64(ca.observed)
			}
			rep.PerClass[name] = cs
		}
	}
	return rep
}

// Shadow re-scores live traffic with a candidate model off the hot path.
// Offer is safe for concurrent use; Close drains and stops the scorer.
type Shadow struct {
	cand    *core.CompiledDetector
	version int

	queue chan observation
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	mu      sync.Mutex
	st      Stats
	dropped uint64

	observedC telemetry.Counter
	droppedC  telemetry.Counter
	disagreeC telemetry.Counter
	divergeG  telemetry.Gauge
}

// New compiles the candidate and starts the drain goroutine.
func New(candidate *core.Detector, cfg Config) (*Shadow, error) {
	if candidate == nil {
		return nil, errors.New("shadow: nil candidate detector")
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	s := &Shadow{
		cand:      candidate.Compile(),
		version:   cfg.Version,
		queue:     make(chan observation, cfg.Queue),
		stop:      make(chan struct{}),
		observedC: cfg.Telemetry.Counter("shadow_observed_total"),
		droppedC:  cfg.Telemetry.Counter("shadow_dropped_total"),
		disagreeC: cfg.Telemetry.Counter("shadow_disagreements_total"),
		divergeG:  cfg.Telemetry.Gauge("shadow_divergence"),
	}
	s.wg.Add(1)
	go s.drain()
	return s, nil
}

// NumFeatures returns the candidate's feature width.
func (s *Shadow) NumFeatures() int { return s.cand.NumFeatures() }

// Version returns the candidate's registry version.
func (s *Shadow) Version() int { return s.version }

// Offer hands one already-scored live sample to the shadow. The feature
// vector is copied, so the caller may reuse its buffer. It never blocks:
// when the queue is full (or the shadow is closed) the sample is dropped,
// counted, and false is returned.
func (s *Shadow) Offer(features []float64, primary Primary) bool {
	select {
	case <-s.stop:
		return false
	default:
	}
	o := observation{features: append([]float64(nil), features...), primary: primary}
	select {
	case s.queue <- o:
		return true
	default:
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		s.droppedC.Inc()
		return false
	}
}

func (s *Shadow) drain() {
	defer s.wg.Done()
	for {
		select {
		case o := <-s.queue:
			s.score(o)
		case <-s.stop:
			for {
				select {
				case o := <-s.queue:
					s.score(o)
				default:
					return
				}
			}
		}
	}
}

func (s *Shadow) score(o observation) {
	s.mu.Lock()
	before := s.st.disagreements
	s.st.Observe(s.cand, o.features, o.primary)
	disagreed := s.st.disagreements - before
	var div float64
	if s.st.scored > 0 {
		div = float64(s.st.disagreements) / float64(s.st.scored)
	}
	s.mu.Unlock()
	s.observedC.Inc()
	if disagreed > 0 {
		s.disagreeC.Inc()
	}
	s.divergeG.Set(div)
}

// Report returns a snapshot of the divergence accumulated so far.
func (s *Shadow) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Report(s.version, s.dropped)
}

// Close stops accepting samples, drains what is already queued, waits for
// the scorer to finish and returns the final report. Safe to call more
// than once.
func (s *Shadow) Close() Report {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.Report()
}

// Evaluate replays a sample set under both models at once and reports
// the candidate's divergence from the baseline, fanning the work out
// through the shared worker pool. Each worker compiles its own pair of
// detectors (compiled detectors are single-goroutine by contract).
func Evaluate(ctx context.Context, baseline, candidate *core.Detector, samples [][]float64, opts parallel.Options) (Report, error) {
	if baseline == nil || candidate == nil {
		return Report{}, errors.New("shadow: nil detector")
	}
	if len(samples) == 0 {
		return Report{}, errors.New("shadow: no samples to evaluate")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(samples) {
		workers = len(samples)
	}
	chunk := (len(samples) + workers - 1) / workers
	parts, err := parallel.Map(ctx, workers, opts, func(_ context.Context, w int) (Stats, error) {
		lo := w * chunk
		hi := min(lo+chunk, len(samples))
		base, cand := baseline.Compile(), candidate.Compile()
		var st Stats
		for _, features := range samples[lo:hi] {
			v, err := base.Detect(features)
			if err != nil {
				return Stats{}, fmt.Errorf("shadow: baseline: %w", err)
			}
			score, err := base.MalwareScore(features)
			if err != nil {
				return Stats{}, fmt.Errorf("shadow: baseline: %w", err)
			}
			st.Observe(cand, features, Primary{
				Malware: v.Malware,
				Class:   v.PredictedClass.String(),
				Score:   score,
			})
		}
		return st, nil
	})
	if err != nil {
		return Report{}, err
	}
	var total Stats
	for _, st := range parts {
		total.Merge(st)
	}
	if total.errors > 0 && total.scored == 0 {
		return Report{}, fmt.Errorf("shadow: candidate scored none of %d samples (feature width mismatch?)", len(samples))
	}
	return total.Report(0, 0), nil
}
