// Package rules implements the rule-based learners the paper evaluates:
// OneR (Holte's one-attribute rule learner) and JRip, a RIPPER-style
// repeated-incremental-pruning rule inducer.
package rules

import (
	"errors"
	"fmt"
	"sort"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// OneRTrainer trains a OneR model: it discretises each attribute into bins
// holding at least MinBucket instances of their majority class, builds one
// rule per bin, and keeps the single attribute whose rule set has the
// lowest training error. The paper notes OneR's F-measure is flat across
// HPC counts because it only ever uses its one chosen feature.
type OneRTrainer struct {
	// MinBucket is the minimum number of majority-class instances per
	// bin (WEKA's -B, default 6).
	MinBucket int
}

// Name implements ml.Trainer.
func (t *OneRTrainer) Name() string { return "OneR" }

// oneR is a trained OneR model: thresholds partition the chosen feature's
// range into len(thresholds)+1 bins, each predicting a class.
type oneR struct {
	feature    int
	featName   string
	thresholds []float64
	dists      [][]float64 // per-bin smoothed class distribution
	numClasses int
}

// Train implements ml.Trainer.
func (t *OneRTrainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	minBucket := t.MinBucket
	if minBucket <= 0 {
		minBucket = 6
	}
	if d.Len() == 0 {
		return nil, errors.New("rules: OneR on empty dataset")
	}
	k := d.NumClasses()
	labels := d.Labels()

	best := -1
	bestErrors := d.Len() + 1
	var bestModel *oneR
	for f := 0; f < d.NumFeatures(); f++ {
		model, errs := buildOneRFeature(d.Column(f), labels, k, minBucket)
		if errs < bestErrors {
			best, bestErrors = f, errs
			model.feature = f
			model.featName = d.FeatureNames[f]
			bestModel = model
		}
	}
	if best < 0 {
		return nil, errors.New("rules: OneR found no usable feature")
	}
	return bestModel, nil
}

type valLabel struct {
	v float64
	l int
}

// buildOneRFeature discretises one feature and returns the model plus its
// training-error count.
func buildOneRFeature(col []float64, labels []int, k, minBucket int) (*oneR, int) {
	pairs := make([]valLabel, len(col))
	for i := range col {
		pairs[i] = valLabel{col[i], labels[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })

	// Greedy binning: close a bin once its majority class has at least
	// minBucket members and the next value differs (never split ties).
	type bin struct {
		counts   []float64
		majority int
		lastV    float64
	}
	var bins []bin
	cur := bin{counts: make([]float64, k)}
	n := 0
	flush := func() {
		if n > 0 {
			cur.majority = argmaxF(cur.counts)
			bins = append(bins, cur)
			cur = bin{counts: make([]float64, k)}
			n = 0
		}
	}
	for i, p := range pairs {
		cur.counts[p.l]++
		cur.lastV = p.v
		n++
		maj := argmaxF(cur.counts)
		if cur.counts[maj] >= float64(minBucket) &&
			i+1 < len(pairs) && pairs[i+1].v != p.v {
			flush()
		}
	}
	flush()

	// Merge adjacent bins with the same majority class.
	merged := bins[:0]
	for _, b := range bins {
		if len(merged) > 0 && merged[len(merged)-1].majority == b.majority {
			last := &merged[len(merged)-1]
			for c := range b.counts {
				last.counts[c] += b.counts[c]
			}
			last.lastV = b.lastV
		} else {
			merged = append(merged, b)
		}
	}
	bins = merged

	model := &oneR{numClasses: k}
	var errs int
	for i, b := range bins {
		if i+1 < len(bins) {
			model.thresholds = append(model.thresholds, b.lastV)
		}
		total := 0.0
		for _, c := range b.counts {
			total += c
		}
		errs += int(total - b.counts[b.majority])
		dist := make([]float64, k)
		for c := range dist {
			dist[c] = (b.counts[c] + 1) / (total + float64(k)) // Laplace
		}
		model.dists = append(model.dists, dist)
	}
	return model, errs
}

func argmaxF(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// NumClasses implements ml.Classifier.
func (m *oneR) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the one feature tested, plus one.
func (m *oneR) InputWidth() int { return m.feature + 1 }

// Scores implements ml.Classifier.
func (m *oneR) Scores(features []float64) []float64 {
	v := features[m.feature]
	bin := sort.SearchFloat64s(m.thresholds, v)
	// SearchFloat64s returns the first threshold >= v; values equal to a
	// threshold belong to the bin ending at it.
	if bin < len(m.thresholds) && v > m.thresholds[bin] {
		bin++
	}
	out := make([]float64, m.numClasses)
	copy(out, m.dists[bin])
	return out
}

// Predict implements ml.Classifier.
func (m *oneR) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// Feature returns the index and name of the single attribute the model
// selected (the paper observes OneR consistently picks branch
// instructions).
func (m *oneR) Feature() (int, string) { return m.feature, m.featName }

// String summarises the rule set.
func (m *oneR) String() string {
	return fmt.Sprintf("OneR(%s, %d bins)", m.featName, len(m.dists))
}

// FeatureOf exposes the selected attribute of a OneR model, if c is one.
func FeatureOf(c ml.Classifier) (int, string, bool) {
	if m, ok := c.(*oneR); ok {
		idx, name := m.Feature()
		return idx, name, true
	}
	return 0, "", false
}
