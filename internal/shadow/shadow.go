// Package shadow compares a candidate model with a reference so an
// operator can measure how a new registry version would behave before
// promoting it. Every comparison scores the candidate through the
// compiled batch path and folds (reference verdict and score, candidate
// verdict and score) pairs into one Stats:
//
//   - Shadow re-scores live traffic off the hot path. The serving tier
//     offers each scored chunk (features plus the live verdicts and
//     scores); Offer copies it into a queue bounded in samples and returns
//     immediately, and a drain goroutine scores each chunk with one
//     DetectScoredBatch and folds it. A chunk that would overfill the
//     queue is dropped whole and counted — shadow scoring sheds load
//     before it can ever back-pressure live detection.
//   - Evaluate compares two models offline over a sample set (cmd/smartctl
//     diff): two Detector.DetectAll calls and one fold.
//   - samplelog.Backtest compares a candidate with the verdicts a recorded
//     sample log carries.
package shadow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"twosmart/internal/core"
	"twosmart/internal/parallel"
	"twosmart/internal/telemetry"
	"twosmart/internal/workload"
)

// DefaultQueue is the bound on queued samples when Config.Queue is zero.
// The serving tier offers chunks of at most 512 samples, so two fit.
const DefaultQueue = 1024

// Config tunes a streaming Shadow.
type Config struct {
	// Queue bounds the samples queued for the scorer; a chunk that would
	// take them past the bound is dropped whole and counted, never
	// blocked on. Defaults to DefaultQueue.
	Queue int
	// Version is the candidate's registry version, echoed in reports.
	Version int
	// Telemetry receives shadow_* instruments; nil disables.
	Telemetry *telemetry.Registry
}

// ClassStat is the divergence of one reference-predicted class.
type ClassStat struct {
	Observed     uint64  `json:"observed"`
	Disagreed    uint64  `json:"disagreed"`
	MeanAbsDelta float64 `json:"mean_abs_delta"`
}

// Report summarises a comparison. VerdictDivergence is the fraction of
// scored samples where the candidate's malware decision differed from
// the reference's.
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

// Stats accumulates a candidate's divergence from a reference — the live
// model, a baseline version or the recorded verdicts — and emits its
// Report. Live shadow scoring, Evaluate and log backtests all fold into
// one. The zero value is ready to use; a Stats is not safe for concurrent
// use.
type Stats struct {
	scored        uint64
	errors        uint64
	disagreements uint64
	sumAbsDelta   float64
	maxDelta      float64
	perClass      map[workload.Class]*classAcc
}

type classAcc struct {
	observed    uint64
	disagreed   uint64
	sumAbsDelta float64
}

// Fold adds samples scored by both sides, in order: ref[i] and
// refScores[i] are the reference's verdict and malware score for sample
// i, cand[i] and candScores[i] the candidate's; all four have equal
// length. Per-class stats key on the reference's predicted class. Fold
// returns how many of the samples the two malware decisions disagree on.
func (st *Stats) Fold(ref []core.Verdict, refScores []float64, cand []core.Verdict, candScores []float64) uint64 {
	if st.perClass == nil {
		st.perClass = make(map[workload.Class]*classAcc)
	}
	var disagreed uint64
	for i := range ref {
		delta := math.Abs(candScores[i] - refScores[i])
		st.sumAbsDelta += delta
		if delta > st.maxDelta {
			st.maxDelta = delta
		}
		ca := st.perClass[ref[i].PredictedClass]
		if ca == nil {
			ca = &classAcc{}
			st.perClass[ref[i].PredictedClass] = ca
		}
		ca.observed++
		ca.sumAbsDelta += delta
		if cand[i].Malware != ref[i].Malware {
			disagreed++
			ca.disagreed++
		}
	}
	st.scored += uint64(len(ref))
	st.disagreements += disagreed
	return disagreed
}

// Fail counts n samples the candidate could not score.
func (st *Stats) Fail(n int) { st.errors += uint64(n) }

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
		for class, ca := range st.perClass {
			rep.PerClass[class.String()] = ClassStat{
				Observed:     ca.observed,
				Disagreed:    ca.disagreed,
				MeanAbsDelta: ca.sumAbsDelta / float64(ca.observed),
			}
		}
	}
	return rep
}

// chunk is one offered chunk, copied: the samples' features (one backing
// array) with the live verdicts and scores.
type chunk struct {
	samples  [][]float64
	verdicts []core.Verdict
	scores   []float64
}

// Shadow re-scores live traffic with a candidate model off the hot path.
// Offer is safe for concurrent use; Close drains and stops the scorer.
type Shadow struct {
	cand    *core.CompiledDetector
	version int
	limit   int64 // Config.Queue

	// queue carries offered chunks to the drain; queued counts their
	// samples. A chunk is queued only after reserving its samples against
	// limit, and no queued chunk is empty, so the queue (limit deep) never
	// fills and Offer's send never blocks.
	queue  chan chunk
	queued atomic.Int64
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// the drain's candidate verdicts and scores, reused across chunks
	verdicts []core.Verdict
	scores   []float64

	mu      sync.Mutex
	st      Stats
	dropped atomic.Uint64

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
		limit:     int64(cfg.Queue),
		queue:     make(chan chunk, cfg.Queue),
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

// Offer hands one already-scored live chunk to the shadow: samples[i]'s
// features with the live model's verdicts[i] and scores[i]. The chunk is
// copied, so the caller may reuse its buffers. It never blocks: when the
// chunk would take the queue past Config.Queue samples (or the shadow is
// closed) it is dropped whole and false is returned; a full queue counts
// the chunk's samples as dropped.
func (s *Shadow) Offer(samples [][]float64, verdicts []core.Verdict, scores []float64) bool {
	select {
	case <-s.stop:
		return false
	default:
	}
	n := int64(len(samples))
	if n == 0 {
		return true
	}
	if s.queued.Add(n) > s.limit {
		s.queued.Add(-n)
		s.dropped.Add(uint64(n))
		s.droppedC.Add(uint64(n))
		return false
	}
	// One backing array for the chunk's features; a sample of another
	// width only grows it, and the drain then fails the chunk.
	flat := make([]float64, 0, len(samples)*s.cand.NumFeatures())
	c := chunk{
		samples:  make([][]float64, len(samples)),
		verdicts: append([]core.Verdict(nil), verdicts...),
		scores:   append([]float64(nil), scores...),
	}
	for i, fv := range samples {
		flat = append(flat, fv...)
		c.samples[i] = flat[len(flat)-len(fv):]
	}
	s.queue <- c
	return true
}

func (s *Shadow) drain() {
	defer s.wg.Done()
	for {
		select {
		case c := <-s.queue:
			s.score(c)
		case <-s.stop:
			for {
				select {
				case c := <-s.queue:
					s.score(c)
				default:
					return
				}
			}
		}
	}
}

// score runs the candidate over one chunk and folds it against the live
// decisions; a chunk the candidate cannot score counts as errors whole.
func (s *Shadow) score(c chunk) {
	n := len(c.samples)
	s.queued.Add(-int64(n))
	if cap(s.verdicts) < n {
		s.verdicts = make([]core.Verdict, n)
		s.scores = make([]float64, n)
	}
	verdicts, scores := s.verdicts[:n], s.scores[:n]
	err := s.cand.DetectScoredBatch(verdicts, scores, c.samples)
	s.mu.Lock()
	var disagreed uint64
	if err != nil {
		s.st.Fail(n)
	} else {
		disagreed = s.st.Fold(c.verdicts, c.scores, verdicts, scores)
	}
	var div float64
	if s.st.scored > 0 {
		div = float64(s.st.disagreements) / float64(s.st.scored)
	}
	s.mu.Unlock()
	s.observedC.Add(uint64(n))
	s.disagreeC.Add(disagreed)
	s.divergeG.Set(div)
}

// Report returns a snapshot of the divergence accumulated so far.
func (s *Shadow) Report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Report(s.version, s.dropped.Load())
}

// Close stops accepting samples, drains what is already queued, waits for
// the scorer to finish and returns the final report. Safe to call more
// than once.
func (s *Shadow) Close() Report {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
	return s.Report()
}

// Evaluate scores a sample set under both models and reports the
// candidate's divergence from the baseline: one Detector.DetectAll per
// model, fanned out as opts says, then one fold.
func Evaluate(ctx context.Context, baseline, candidate *core.Detector, samples [][]float64, opts parallel.Options) (Report, error) {
	if baseline == nil || candidate == nil {
		return Report{}, errors.New("shadow: nil detector")
	}
	if len(samples) == 0 {
		return Report{}, errors.New("shadow: no samples to evaluate")
	}
	ref, refScores, err := baseline.DetectAll(ctx, samples, opts)
	if err != nil {
		return Report{}, fmt.Errorf("shadow: baseline: %w", err)
	}
	cand, candScores, err := candidate.DetectAll(ctx, samples, opts)
	if err != nil {
		return Report{}, fmt.Errorf("shadow: candidate: %w", err)
	}
	var st Stats
	st.Fold(ref, refScores, cand, candScores)
	return st.Report(0, 0), nil
}
