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
	// Workers bounds the candidate's scoring fan-out; zero or less means
	// runtime.NumCPU(), as in core.Detector.DetectAll.
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
	// Replayed counts the scored records that passed the filters: those
	// the candidate scored plus those of another width, which count in
	// Report.Errors.
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

// Backtest replays a recorded log window through a candidate detector at
// full speed and reports divergence against the verdicts the fleet
// actually served. Records without a recorded verdict (edge captures in
// logs an earlier gateway wrote) are skipped — there is nothing to
// diverge from — and records of another width than the candidate's count
// as scoring errors. The rest are scored with one Detector.DetectAll and
// folded against their recorded verdicts; with an envelope, a sequential
// recount replays them through the cascade. The torn/corrupt accounting
// of the underlying scan rides along in the result.
func Backtest(ctx context.Context, dir string, candidate *core.Detector, opts BacktestOptions) (BacktestResult, error) {
	var res BacktestResult
	if candidate == nil {
		return res, errors.New("samplelog: nil candidate detector")
	}
	width := candidate.NumFeatures()
	if opts.Envelope != nil {
		if err := opts.Envelope.Validate(); err != nil {
			return res, fmt.Errorf("samplelog: cascade envelope: %w", err)
		}
		if opts.Envelope.NumFeatures() != width {
			return res, fmt.Errorf("samplelog: cascade envelope has %d features, candidate wants %d",
				opts.Envelope.NumFeatures(), width)
		}
	}
	var (
		samples    [][]float64
		ref        []core.Verdict
		refScores  []float64
		mismatched int
	)
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
		if len(r.Features) != width {
			mismatched++
			return nil
		}
		samples = append(samples, r.Features)
		ref = append(ref, core.Verdict{PredictedClass: workload.Class(r.Class), Malware: r.Malware()})
		refScores = append(refScores, r.Score)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Log = rep
	res.Replayed = len(samples) + mismatched
	if res.Replayed == 0 {
		return res, fmt.Errorf("samplelog: no scored records to replay in %s (records=%d, unscored=%d, filtered=%d)",
			dir, rep.Records, res.SkippedUnscored, res.SkippedFiltered)
	}

	cand, candScores, err := candidate.DetectAll(ctx, samples, parallel.Options{Workers: opts.Workers})
	if err != nil {
		return res, err
	}
	var st shadow.Stats
	st.Fold(ref, refScores, cand, candScores)
	st.Fail(mismatched)
	res.Report = st.Report(opts.Version, 0)
	if len(samples) == 0 {
		return res, fmt.Errorf("samplelog: candidate scored none of %d records (feature width mismatch?)", mismatched)
	}
	if opts.Envelope != nil {
		env := opts.Envelope.Compile()
		cb := &CascadeBacktest{Threshold: opts.Envelope.Threshold}
		for i, fv := range samples {
			if env.Score(fv) <= cb.Threshold {
				cb.ShortCircuited++
				if ref[i].Malware {
					cb.MalwareShortCircuited++
				}
			} else {
				cb.PassedOn++
			}
		}
		cb.ShortFraction = float64(cb.ShortCircuited) / float64(len(samples))
		res.Cascade = cb
	}
	return res, nil
}
