package samplelog

import (
	"context"
	"errors"
	"fmt"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/parallel"
	"twosmart/internal/shadow"
	"twosmart/internal/workload"
)

// BacktestOptions narrows and parallelizes a backtest run.
type BacktestOptions struct {
	// Version is the candidate's registry version, echoed in the report.
	Version int
	// Workers bounds the replay fan-out (default: parallel's default).
	Workers int
	// FromNanos/ToNanos bound the replay window (inclusive); zero means
	// unbounded on that side.
	FromNanos int64
	ToNanos   int64
	// App restricts the replay to one application's records; empty means
	// all apps.
	App string
	// Envelope, when non-nil, additionally replays every record through
	// the stage-0 cascade envelope at its calibrated threshold and reports
	// what the cascade would have done to the recorded traffic — including
	// the safety number: recorded malware verdicts the envelope would have
	// short-circuited as clear benign. The envelope's width must match the
	// candidate's.
	Envelope *anomaly.Envelope
}

// CascadeBacktest is the cascade section of a BacktestResult: what the
// stage-0 envelope would have decided about the recorded, scored traffic.
type CascadeBacktest struct {
	// Threshold is the envelope's short-circuit threshold replayed.
	Threshold float64 `json:"threshold"`
	// ShortCircuited counts replayed records the envelope would have
	// answered as clear benign without reaching the full detector.
	ShortCircuited uint64 `json:"short_circuited"`
	// PassedOn counts replayed records the envelope would have forwarded.
	PassedOn uint64 `json:"passed_on"`
	// ShortFraction is ShortCircuited over the replayed total.
	ShortFraction float64 `json:"short_fraction"`
	// MalwareShortCircuited is the safety number: recorded malware
	// verdicts the cascade would have short-circuited. Anything above zero
	// means the envelope would have suppressed a detection the fleet
	// actually made.
	MalwareShortCircuited uint64 `json:"malware_short_circuited"`
}

// BacktestResult pairs the divergence report with the log-scan context a
// CI assertion or operator needs to trust it: how much of the log was
// actually replayed, and why the rest was not.
type BacktestResult struct {
	// Report is the candidate-vs-recorded divergence in the same shape
	// shadow scoring and smartctl diff emit.
	Report shadow.Report `json:"report"`
	// Log is the integrity scan of the whole directory.
	Log VerifyReport `json:"log"`
	// Replayed counts records actually scored against the candidate.
	Replayed int `json:"replayed"`
	// SkippedUnscored counts records that carried no recorded verdict.
	// The shard scores every record it writes; unscored records come from
	// logs an earlier gateway wrote at its edge, before any shard scored
	// them.
	SkippedUnscored int `json:"skipped_unscored"`
	// SkippedFiltered counts scored records excluded by the window or
	// app filter.
	SkippedFiltered int `json:"skipped_filtered"`
	// Cascade is the stage-0 replay section, present only when
	// BacktestOptions carried an envelope.
	Cascade *CascadeBacktest `json:"cascade,omitempty"`
}

// btStats is one backtest worker's accumulator: the shared shadow
// divergence accumulator plus the cascade replay counters.
type btStats struct {
	div shadow.Stats

	// cascade replay accounting (all zero when no envelope rides along)
	cascadeShort  uint64
	cascadePass   uint64
	malwareShort  uint64
	cascadeErrors uint64 // records whose width the envelope could not score
}

// observe replays one record through the candidate against the verdict
// the fleet recorded for it.
func (st *btStats) observe(cand *core.CompiledDetector, rec Record) {
	st.div.Observe(cand, rec.Features, shadow.Primary{
		Malware: rec.Malware(),
		Class:   workload.Class(rec.Class).String(),
		Score:   rec.Score,
	})
}

// observeCascade replays one record through the stage-0 envelope and
// accounts what the cascade would have done to it.
func (st *btStats) observeCascade(env *anomaly.Compiled, threshold float64, rec Record) {
	if len(rec.Features) != env.NumFeatures() {
		st.cascadeErrors++
		return
	}
	if env.Score(rec.Features) <= threshold {
		st.cascadeShort++
		if rec.Malware() {
			st.malwareShort++
		}
	} else {
		st.cascadePass++
	}
}

func (st *btStats) merge(o btStats) {
	st.div.Merge(o.div)
	st.cascadeShort += o.cascadeShort
	st.cascadePass += o.cascadePass
	st.malwareShort += o.malwareShort
	st.cascadeErrors += o.cascadeErrors
}

// Backtest replays a recorded log window through a candidate detector at
// full speed and reports divergence against the verdicts the fleet
// actually served. Records without a recorded verdict (edge captures in
// logs an earlier gateway wrote) are skipped — there is nothing to
// diverge from. Each worker compiles its own candidate (compiled
// detectors are single-goroutine by contract) and scores a contiguous
// chunk; the torn/corrupt accounting of the underlying scan rides along
// in the result.
func Backtest(ctx context.Context, dir string, candidate *core.Detector, opts BacktestOptions) (BacktestResult, error) {
	var res BacktestResult
	if candidate == nil {
		return res, errors.New("samplelog: nil candidate detector")
	}
	if opts.Envelope != nil {
		if err := opts.Envelope.Validate(); err != nil {
			return res, fmt.Errorf("samplelog: cascade envelope: %w", err)
		}
		if opts.Envelope.NumFeatures() != candidate.NumFeatures() {
			return res, fmt.Errorf("samplelog: cascade envelope has %d features, candidate wants %d",
				opts.Envelope.NumFeatures(), candidate.NumFeatures())
		}
	}
	var records []Record
	rep, err := ReadDir(dir, func(r Record) error {
		if !r.Scored() {
			res.SkippedUnscored++
			return nil
		}
		if (opts.FromNanos != 0 && r.Nanos < opts.FromNanos) ||
			(opts.ToNanos != 0 && r.Nanos > opts.ToNanos) ||
			(opts.App != "" && r.App != opts.App) {
			res.SkippedFiltered++
			return nil
		}
		records = append(records, r)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Log = rep
	res.Replayed = len(records)
	if len(records) == 0 {
		return res, fmt.Errorf("samplelog: no scored records to replay in %s (records=%d, unscored=%d, filtered=%d)",
			dir, rep.Records, res.SkippedUnscored, res.SkippedFiltered)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(records) {
		workers = len(records)
	}
	chunk := (len(records) + workers - 1) / workers
	parts, err := parallel.Map(ctx, workers, parallel.Options{Workers: workers}, func(_ context.Context, w int) (btStats, error) {
		lo := w * chunk
		hi := min(lo+chunk, len(records))
		cand := candidate.Compile()
		var env *anomaly.Compiled
		if opts.Envelope != nil {
			env = opts.Envelope.Compile()
		}
		var st btStats
		for _, rec := range records[lo:hi] {
			st.observe(cand, rec)
			if env != nil {
				st.observeCascade(env, opts.Envelope.Threshold, rec)
			}
		}
		return st, nil
	})
	if err != nil {
		return res, err
	}
	var total btStats
	for _, st := range parts {
		total.merge(st)
	}
	res.Report = total.div.Report(opts.Version, 0)
	if res.Report.Errors > 0 && res.Report.Scored == 0 {
		return res, fmt.Errorf("samplelog: candidate scored none of %d records (feature width mismatch?)", len(records))
	}
	if opts.Envelope != nil {
		cb := &CascadeBacktest{
			Threshold:             opts.Envelope.Threshold,
			ShortCircuited:        total.cascadeShort,
			PassedOn:              total.cascadePass,
			MalwareShortCircuited: total.malwareShort,
		}
		if replayed := total.cascadeShort + total.cascadePass; replayed > 0 {
			cb.ShortFraction = float64(total.cascadeShort) / float64(replayed)
		}
		res.Cascade = cb
	}
	return res, nil
}
