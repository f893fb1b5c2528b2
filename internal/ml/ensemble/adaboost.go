// Package ensemble implements AdaBoost.M1, the boosting method 2SMaRT
// layers on top of the stage-2 specialized classifiers so that detectors
// restricted to the four run-time-available HPCs recover the detection
// performance of 8- and 16-HPC detectors. Base learners are trained on
// weight-proportional resamples (as WEKA's AdaBoostM1 does by default), so
// any ml.Trainer can serve as the base learner without supporting instance
// weights.
package ensemble

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// AdaBoostTrainer boosts a base trainer with AdaBoost.M1.
type AdaBoostTrainer struct {
	// Base is the weak learner to boost; required.
	Base ml.Trainer
	// Rounds is the number of boosting iterations (WEKA default 10).
	Rounds int
	// Seed drives resampling.
	Seed int64
}

// Name implements ml.Trainer.
func (t *AdaBoostTrainer) Name() string {
	if t.Base != nil {
		return "AdaBoost(" + t.Base.Name() + ")"
	}
	return "AdaBoost"
}

type adaboost struct {
	members    []ml.Classifier
	alphas     []float64
	numClasses int
}

// Train implements ml.Trainer.
func (t *AdaBoostTrainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	if t.Base == nil {
		return nil, errors.New("ensemble: AdaBoost requires a base trainer")
	}
	if d.Len() == 0 {
		return nil, errors.New("ensemble: AdaBoost on empty dataset")
	}
	rounds := t.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	n := d.Len()
	k := d.NumClasses()
	rng := rand.New(rand.NewSource(t.Seed + 43))

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}

	model := &adaboost{numClasses: k}
	for round := 0; round < rounds; round++ {
		sample := resample(d, weights, rng)
		member, err := t.Base.Train(sample)
		if err != nil {
			return nil, fmt.Errorf("ensemble: round %d: %w", round, err)
		}
		// Weighted error on the full (original) training set.
		var errWeight float64
		wrong := make([]bool, n)
		for i, ins := range d.Instances {
			if member.Predict(ins.Features) != ins.Label {
				wrong[i] = true
				errWeight += weights[i]
			}
		}
		if errWeight >= 0.5 {
			// Weak learner no better than chance: stop (keep any
			// earlier members; if none, keep this one with tiny
			// weight so the ensemble is usable).
			if len(model.members) == 0 {
				model.members = append(model.members, member)
				model.alphas = append(model.alphas, 1e-3)
			}
			break
		}
		if errWeight < 1e-10 {
			// Perfect member dominates; include it and stop.
			model.members = append(model.members, member)
			model.alphas = append(model.alphas, 10)
			break
		}
		alpha := math.Log((1 - errWeight) / errWeight)
		model.members = append(model.members, member)
		model.alphas = append(model.alphas, alpha)

		var sum float64
		for i := range weights {
			if wrong[i] {
				weights[i] *= math.Exp(alpha)
			}
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
	}
	if len(model.members) == 0 {
		return nil, errors.New("ensemble: AdaBoost produced no members")
	}
	return model, nil
}

// resample draws len(d) instances with replacement, proportionally to the
// given weights, using inverse-CDF sampling.
func resample(d *dataset.Dataset, weights []float64, rng *rand.Rand) *dataset.Dataset {
	n := d.Len()
	cdf := make([]float64, n)
	var acc float64
	for i, w := range weights {
		acc += w
		cdf[i] = acc
	}
	out := dataset.New(d.FeatureNames, d.ClassNames)
	out.Instances = make([]dataset.Instance, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Float64() * acc
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out.Instances = append(out.Instances, d.Instances[lo])
	}
	return out
}

// NumClasses implements ml.Classifier.
func (m *adaboost) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the widest input of its members.
func (m *adaboost) InputWidth() int {
	w := 0
	for _, member := range m.members {
		w = max(w, member.InputWidth())
	}
	return w
}

// Scores implements ml.Classifier: the alpha-weighted vote mass per class,
// normalised to sum to one.
func (m *adaboost) Scores(features []float64) []float64 {
	out := make([]float64, m.numClasses)
	var total float64
	for i, member := range m.members {
		out[member.Predict(features)] += m.alphas[i]
		total += m.alphas[i]
	}
	if total > 0 {
		for c := range out {
			out[c] /= total
		}
	}
	return out
}

// Predict implements ml.Classifier.
func (m *adaboost) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// Members returns the ensemble's base classifiers and their vote weights
// (used by the hardware cost model).
func Members(c ml.Classifier) ([]ml.Classifier, []float64, bool) {
	m, ok := c.(*adaboost)
	if !ok {
		return nil, nil, false
	}
	return m.members, m.alphas, true
}

// FromMembers reassembles an AdaBoost ensemble from its members and vote
// weights (used when deserialising a persisted model).
func FromMembers(members []ml.Classifier, alphas []float64, numClasses int) (ml.Classifier, error) {
	if len(members) == 0 || len(members) != len(alphas) {
		return nil, errors.New("ensemble: members and alphas must be non-empty and equal length")
	}
	if numClasses <= 0 {
		return nil, errors.New("ensemble: invalid class count")
	}
	for i, m := range members {
		if m.NumClasses() != numClasses {
			return nil, fmt.Errorf("ensemble: member %d has %d classes, want %d", i, m.NumClasses(), numClasses)
		}
	}
	return &adaboost{
		members:    append([]ml.Classifier(nil), members...),
		alphas:     append([]float64(nil), alphas...),
		numClasses: numClasses,
	}, nil
}
