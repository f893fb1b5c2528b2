// Package bayes implements Gaussian Naive Bayes, an extension beyond the
// paper's four stage-2 algorithms. The paper's companion studies by the
// same group (DAC'18, CF'18) include Bayesian learners in their "diverse
// range of ML classifiers"; this package lets the repository's sweeps be
// extended the same way (see BenchmarkExtendedModelZoo).
package bayes

import (
	"errors"
	"math"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// NBTrainer trains a Gaussian Naive Bayes classifier: per class, each
// feature is modelled as an independent normal distribution; prediction
// maximises the log posterior with the class priors from the training set.
type NBTrainer struct {
	// VarianceFloor prevents degenerate zero-variance features
	// (default 1e-9 relative to the feature's global variance).
	VarianceFloor float64
}

// Name implements ml.Trainer.
func (t *NBTrainer) Name() string { return "NaiveBayes" }

type naiveBayes struct {
	logPriors []float64
	// means[class][feature], variances[class][feature]
	means      [][]float64
	variances  [][]float64
	numClasses int
}

// Train implements ml.Trainer.
func (t *NBTrainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	if d.Len() == 0 {
		return nil, errors.New("bayes: training on empty dataset")
	}
	k := d.NumClasses()
	nf := d.NumFeatures()
	floor := t.VarianceFloor
	if floor <= 0 {
		floor = 1e-9
	}

	counts := make([]float64, k)
	means := alloc2(k, nf)
	for _, ins := range d.Instances {
		counts[ins.Label]++
		for j, v := range ins.Features {
			means[ins.Label][j] += v
		}
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := 0; j < nf; j++ {
			means[c][j] /= counts[c]
		}
	}
	variances := alloc2(k, nf)
	for _, ins := range d.Instances {
		for j, v := range ins.Features {
			dlt := v - means[ins.Label][j]
			variances[ins.Label][j] += dlt * dlt
		}
	}
	// Global variance per feature provides the floor scale.
	globalVar := make([]float64, nf)
	globalMean := make([]float64, nf)
	for _, ins := range d.Instances {
		for j, v := range ins.Features {
			globalMean[j] += v
		}
	}
	n := float64(d.Len())
	for j := range globalMean {
		globalMean[j] /= n
	}
	for _, ins := range d.Instances {
		for j, v := range ins.Features {
			dlt := v - globalMean[j]
			globalVar[j] += dlt * dlt / n
		}
	}
	for c := 0; c < k; c++ {
		for j := 0; j < nf; j++ {
			if counts[c] > 1 {
				variances[c][j] /= counts[c]
			}
			minVar := floor * (globalVar[j] + 1)
			if variances[c][j] < minVar {
				variances[c][j] = minVar
			}
		}
	}
	logPriors := make([]float64, k)
	for c := 0; c < k; c++ {
		// Laplace-smoothed priors keep unseen classes finite.
		logPriors[c] = math.Log((counts[c] + 1) / (n + float64(k)))
	}
	return &naiveBayes{
		logPriors:  logPriors,
		means:      means,
		variances:  variances,
		numClasses: k,
	}, nil
}

func alloc2(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

// NumClasses implements ml.Classifier.
func (m *naiveBayes) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the width of the per-feature
// tables.
func (m *naiveBayes) InputWidth() int { return len(m.means[0]) }

// Scores implements ml.Classifier: normalised posteriors.
func (m *naiveBayes) Scores(features []float64) []float64 {
	logPost := make([]float64, m.numClasses)
	maxLog := math.Inf(-1)
	for c := 0; c < m.numClasses; c++ {
		lp := m.logPriors[c]
		for j, v := range features[:m.InputWidth()] {
			mu := m.means[c][j]
			va := m.variances[c][j]
			dlt := v - mu
			lp += -0.5*math.Log(2*math.Pi*va) - dlt*dlt/(2*va)
		}
		logPost[c] = lp
		if lp > maxLog {
			maxLog = lp
		}
	}
	var sum float64
	for c := range logPost {
		logPost[c] = math.Exp(logPost[c] - maxLog)
		sum += logPost[c]
	}
	for c := range logPost {
		logPost[c] /= sum
	}
	return logPost
}

// Predict implements ml.Classifier.
func (m *naiveBayes) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// Complexity reports the parameter-table shape of a Naive Bayes model, if c
// is one (classes x features Gaussians).
func Complexity(c ml.Classifier) (classes, features int, ok bool) {
	m, isNB := c.(*naiveBayes)
	if !isNB {
		return 0, 0, false
	}
	return m.numClasses, len(m.means[0]), true
}
