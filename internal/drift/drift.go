// Package drift watches the run-time HPC feature distribution for
// divergence from the distribution a model was trained on. HMDs degrade
// sharply under distribution shift (malware families evolve, benign
// workload mixes change), and the training-time baseline is the right
// reference for spotting it — so every published model carries a
// Reference (per-feature histogram plus moments, persisted in the
// registry manifest) and the serving tier streams live samples through a
// Monitor that reports, per HPC feature:
//
//   - PSI, the Population Stability Index between the live histogram and
//     the training reference (< 0.1 stable, 0.1–0.25 moderate shift,
//     > 0.25 actionable shift by the usual credit-scoring convention);
//   - an EWMA z-score, how far the exponentially smoothed live mean has
//     wandered from the training mean in training-stdev units.
//
// Crossing the configured PSI alert threshold flags the model for
// retraining or rollback; the serving tier exports the per-feature PSI
// and z-score gauges through telemetry and folds the verdict into the
// JSON run report.
package drift

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"twosmart/internal/dataset"
	"twosmart/internal/telemetry"
)

// DefaultBins is the reference histogram resolution when BuildReference
// is called with bins <= 0. Coarse on purpose: PSI over ~a dozen buckets
// is the textbook setup, and fewer buckets need fewer live samples to
// fill.
const DefaultBins = 12

// Reference is the training-time feature distribution a Monitor compares
// live traffic against. It is JSON-serialisable and small (edges plus
// counts per feature), so the model registry embeds it in the manifest
// entry next to the blob it describes.
type Reference struct {
	// Features names the columns, in the model's input order.
	Features []string `json:"features"`
	// Edges[f] holds the interior bucket boundaries of feature f: values
	// below Edges[f][0] fall into bucket 0, values >= the last edge into
	// the overflow bucket, so every feature has len(Edges[f])+1 buckets.
	Edges [][]float64 `json:"edges"`
	// Counts[f][b] is the training-sample count of feature f, bucket b;
	// len(Counts[f]) == len(Edges[f])+1.
	Counts [][]uint64 `json:"counts"`
	// Mean and Std are the training-time moments, for the EWMA z-score.
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// BuildReference derives the reference distribution from a training
// dataset: per feature, bins-quantile histogram edges plus mean and
// standard deviation. bins <= 0 uses DefaultBins.
func BuildReference(d *dataset.Dataset, bins int) (*Reference, error) {
	if d == nil || d.Len() == 0 {
		return nil, errors.New("drift: empty reference dataset")
	}
	if bins <= 0 {
		bins = DefaultBins
	}
	if bins < 2 {
		return nil, fmt.Errorf("drift: %d bins below the minimum 2", bins)
	}
	nf := d.NumFeatures()
	ref := &Reference{
		Features: append([]string(nil), d.FeatureNames...),
		Edges:    make([][]float64, nf),
		Counts:   make([][]uint64, nf),
		Mean:     make([]float64, nf),
		Std:      make([]float64, nf),
	}
	for f := 0; f < nf; f++ {
		col := d.Column(f)
		ref.Mean[f], ref.Std[f] = moments(col)
		ref.Edges[f] = quantileEdges(col, bins)
		counts := make([]uint64, len(ref.Edges[f])+1)
		for _, v := range col {
			counts[bucketOf(ref.Edges[f], v)]++
		}
		ref.Counts[f] = counts
	}
	return ref, nil
}

// NumFeatures returns the feature width the reference describes.
func (r *Reference) NumFeatures() int { return len(r.Features) }

// Validate checks the reference's internal consistency (the registry
// calls it when decoding a manifest, so a hand-edited or corrupted entry
// fails on load rather than at serving time).
func (r *Reference) Validate() error {
	n := len(r.Features)
	if n == 0 {
		return errors.New("drift: reference has no features")
	}
	if len(r.Edges) != n || len(r.Counts) != n || len(r.Mean) != n || len(r.Std) != n {
		return fmt.Errorf("drift: reference arrays disagree on width (features=%d edges=%d counts=%d mean=%d std=%d)",
			n, len(r.Edges), len(r.Counts), len(r.Mean), len(r.Std))
	}
	for f := 0; f < n; f++ {
		if len(r.Edges[f]) == 0 {
			return fmt.Errorf("drift: feature %q has no histogram edges", r.Features[f])
		}
		if len(r.Counts[f]) != len(r.Edges[f])+1 {
			return fmt.Errorf("drift: feature %q has %d buckets for %d edges, want %d",
				r.Features[f], len(r.Counts[f]), len(r.Edges[f]), len(r.Edges[f])+1)
		}
		var total uint64
		for b, e := range r.Edges[f] {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return fmt.Errorf("drift: feature %q edge %d is %v", r.Features[f], b, e)
			}
			if b > 0 && e < r.Edges[f][b-1] {
				return fmt.Errorf("drift: feature %q edges not ascending at %d", r.Features[f], b)
			}
		}
		for _, c := range r.Counts[f] {
			total += c
		}
		if total == 0 {
			return fmt.Errorf("drift: feature %q reference histogram is empty", r.Features[f])
		}
	}
	return nil
}

// moments returns the mean and (population) standard deviation of col.
func moments(col []float64) (mean, std float64) {
	for _, v := range col {
		mean += v
	}
	mean /= float64(len(col))
	var ss float64
	for _, v := range col {
		d := v - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(col)))
}

// quantileEdges returns up to bins-1 ascending interior edges at the
// column's quantiles, deduplicated (heavily repeated values — HPC
// features are often zero-inflated — collapse edges).
func quantileEdges(col []float64, bins int) []float64 {
	sorted := append([]float64(nil), col...)
	slices.Sort(sorted)
	edges := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		idx := b * len(sorted) / bins
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		e := sorted[idx]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	if len(edges) == 0 {
		// A constant column still needs one edge so there are two buckets:
		// "the constant" and "anything above it".
		edges = append(edges, sorted[len(sorted)-1])
	}
	return edges
}

// bucketOf returns the histogram bucket of v: binary search over the
// interior edges, values >= the last edge land in the overflow bucket.
func bucketOf(edges []float64, v float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Config tunes a drift monitor.
type Config struct {
	// AlertPSI is the per-feature PSI above which the monitor recommends
	// retrain-or-rollback (default 0.25, the conventional "significant
	// shift" threshold).
	AlertPSI float64
	// MinSamples is how many live samples must accumulate before PSI and
	// the alert are considered meaningful (default 200). Snapshots taken
	// earlier report Warmup=true and never alert.
	MinSamples int
	// Alpha is the EWMA coefficient for the per-feature smoothed mean, in
	// (0,1] (default 0.02 — slow on purpose: drift is a minutes-scale
	// signal, not a per-sample one).
	Alpha float64
	// RecomputeEvery re-derives PSI and refreshes the telemetry gauges
	// every that many observed samples (default 256); Snapshot always
	// recomputes.
	RecomputeEvery int
	// Telemetry, when non-nil, exports drift_psi{feature=...} and
	// drift_zscore{feature=...} gauges, the drift_alert gauge (0/1) and
	// the drift_samples_total counter.
	Telemetry *telemetry.Registry
}

func (c Config) fill() (Config, error) {
	if c.AlertPSI == 0 {
		c.AlertPSI = 0.25
	}
	if c.AlertPSI < 0 {
		return c, fmt.Errorf("drift: negative alert threshold %v", c.AlertPSI)
	}
	if c.MinSamples == 0 {
		c.MinSamples = 200
	}
	if c.MinSamples < 1 {
		return c, fmt.Errorf("drift: min samples %d below 1", c.MinSamples)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.02
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return c, fmt.Errorf("drift: alpha %v outside (0,1]", c.Alpha)
	}
	if c.RecomputeEvery == 0 {
		c.RecomputeEvery = 256
	}
	if c.RecomputeEvery < 1 {
		return c, fmt.Errorf("drift: recompute interval %d below 1", c.RecomputeEvery)
	}
	return c, nil
}

// FeatureDrift is one feature's drift state inside a Report.
type FeatureDrift struct {
	Feature string  `json:"feature"`
	PSI     float64 `json:"psi"`
	ZScore  float64 `json:"zscore"` // EWMA-mean displacement in training stdevs
}

// Report is a point-in-time drift assessment.
type Report struct {
	Samples  uint64         `json:"samples"`
	Warmup   bool           `json:"warmup"` // below MinSamples; PSI not yet meaningful
	Features []FeatureDrift `json:"features"`
	MaxPSI   float64        `json:"max_psi"`
	// Alert is true once any feature's PSI exceeds the configured
	// threshold after warm-up; the serving tier surfaces it as
	// "retrain/rollback" in the run report.
	Alert bool `json:"alert"`
	// Recommendation is "ok", "warmup" or "retrain-or-rollback".
	Recommendation string `json:"recommendation"`
}

// Monitor accumulates live samples against a Reference. All methods are
// safe for concurrent use — many per-stream scoring goroutines feed one
// monitor — with a single mutex; callers on the hot path batch through
// ObserveBatch so the lock is taken once per micro-batch.
type Monitor struct {
	ref *Reference
	cfg Config

	mu       sync.Mutex
	samples  uint64
	counts   [][]uint64 // live histogram, same shape as ref.Counts
	ewmaMean []float64
	seeded   bool

	psi    []telemetry.Gauge
	zsc    []telemetry.Gauge
	alertG telemetry.Gauge
	obs    telemetry.Counter
}

// NewMonitor builds a monitor over a validated reference.
func NewMonitor(ref *Reference, cfg Config) (*Monitor, error) {
	if ref == nil {
		return nil, errors.New("drift: nil reference")
	}
	if err := ref.Validate(); err != nil {
		return nil, err
	}
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	m := &Monitor{
		ref:      ref,
		cfg:      filled,
		counts:   make([][]uint64, len(ref.Features)),
		ewmaMean: make([]float64, len(ref.Features)),
	}
	for f := range m.counts {
		m.counts[f] = make([]uint64, len(ref.Counts[f]))
	}
	if reg := filled.Telemetry; reg.Enabled() {
		m.psi = make([]telemetry.Gauge, len(ref.Features))
		m.zsc = make([]telemetry.Gauge, len(ref.Features))
		for f, name := range ref.Features {
			m.psi[f] = reg.Gauge(telemetry.Label("drift_psi", "feature", name))
			m.zsc[f] = reg.Gauge(telemetry.Label("drift_zscore", "feature", name))
		}
		m.alertG = reg.Gauge("drift_alert")
		m.obs = reg.Counter("drift_samples_total")
	}
	return m, nil
}

// Reference returns the reference the monitor compares against.
func (m *Monitor) Reference() *Reference { return m.ref }

// NumFeatures returns the feature width the monitor expects per sample.
func (m *Monitor) NumFeatures() int { return m.ref.NumFeatures() }

// Observe folds one live sample into the drift state. features must have
// the reference's width; it is only read during the call.
func (m *Monitor) Observe(features []float64) error {
	return m.ObserveBatch([][]float64{features})
}

// ObserveBatch folds a burst of live samples into the drift state under
// one lock acquisition. Every sample must have the reference's width.
func (m *Monitor) ObserveBatch(samples [][]float64) error {
	if len(samples) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, fv := range samples {
		if len(fv) != len(m.ref.Features) {
			return fmt.Errorf("drift: sample has %d features, reference has %d", len(fv), len(m.ref.Features))
		}
		for f, v := range fv {
			m.counts[f][bucketOf(m.ref.Edges[f], v)]++
			if !m.seeded {
				m.ewmaMean[f] = v
			} else {
				m.ewmaMean[f] += m.cfg.Alpha * (v - m.ewmaMean[f])
			}
		}
		m.seeded = true
		m.samples++
		if m.samples%uint64(m.cfg.RecomputeEvery) == 0 {
			m.publishLocked(m.snapshotLocked())
		}
	}
	if m.obs != nil {
		m.obs.Add(uint64(len(samples)))
	}
	return nil
}

// Snapshot computes the current drift report (and refreshes the
// telemetry gauges).
func (m *Monitor) Snapshot() Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := m.snapshotLocked()
	m.publishLocked(rep)
	return rep
}

func (m *Monitor) snapshotLocked() Report {
	rep := Report{
		Samples:  m.samples,
		Warmup:   m.samples < uint64(m.cfg.MinSamples),
		Features: make([]FeatureDrift, len(m.ref.Features)),
	}
	for f, name := range m.ref.Features {
		fd := FeatureDrift{Feature: name}
		if !rep.Warmup {
			fd.PSI = psi(m.ref.Counts[f], m.counts[f])
		}
		if std := m.ref.Std[f]; std > 0 {
			fd.ZScore = (m.ewmaMean[f] - m.ref.Mean[f]) / std
		}
		rep.Features[f] = fd
		if fd.PSI > rep.MaxPSI {
			rep.MaxPSI = fd.PSI
		}
	}
	switch {
	case rep.Warmup:
		rep.Recommendation = "warmup"
	case rep.MaxPSI > m.cfg.AlertPSI:
		rep.Alert = true
		rep.Recommendation = "retrain-or-rollback"
	default:
		rep.Recommendation = "ok"
	}
	return rep
}

func (m *Monitor) publishLocked(rep Report) {
	if m.psi == nil {
		return
	}
	for f, fd := range rep.Features {
		m.psi[f].Set(fd.PSI)
		m.zsc[f].Set(fd.ZScore)
	}
	if rep.Alert {
		m.alertG.Set(1)
	} else {
		m.alertG.Set(0)
	}
}

// psiEpsilon floors bucket proportions so an empty bucket on either side
// contributes a large-but-finite term instead of ±Inf.
const psiEpsilon = 1e-6

// psi computes the Population Stability Index between the expected
// (training) and actual (live) histograms: Σ (p_a − p_e)·ln(p_a/p_e).
func psi(expected, actual []uint64) float64 {
	var te, ta float64
	for _, c := range expected {
		te += float64(c)
	}
	for _, c := range actual {
		ta += float64(c)
	}
	if te == 0 || ta == 0 {
		return 0
	}
	var sum float64
	for b := range expected {
		pe := float64(expected[b]) / te
		pa := float64(actual[b]) / ta
		if pe < psiEpsilon {
			pe = psiEpsilon
		}
		if pa < psiEpsilon {
			pa = psiEpsilon
		}
		sum += (pa - pe) * math.Log(pa/pe)
	}
	return sum
}
