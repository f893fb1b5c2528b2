// Package linear implements multinomial logistic regression (MLR), the
// generalised linear model 2SMaRT uses as its stage-1 multiclass
// application-type predictor: softmax over per-class linear scores, trained
// by gradient descent on L2-regularised cross-entropy with z-score input
// standardisation.
package linear

import (
	"errors"
	"math"
	"math/rand"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// MLRTrainer trains a multinomial logistic regression model.
type MLRTrainer struct {
	// Epochs is the number of SGD passes (default 200).
	Epochs int
	// LearningRate is the initial step size (default 0.1).
	LearningRate float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// Seed drives epoch shuffling.
	Seed int64
}

// Name implements ml.Trainer.
func (t *MLRTrainer) Name() string { return "MLR" }

type mlr struct {
	scaler *dataset.Scaler
	// w[c][j] with trailing bias at j = numFeatures.
	w          [][]float64
	numClasses int
}

// Train implements ml.Trainer.
func (t *MLRTrainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	if d.Len() == 0 {
		return nil, errors.New("linear: MLR on empty dataset")
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	lr := t.LearningRate
	if lr <= 0 {
		lr = 0.1
	}
	l2 := t.L2
	if l2 < 0 {
		l2 = 0
	} else if l2 == 0 {
		l2 = 1e-4
	}

	in := d.NumFeatures()
	k := d.NumClasses()
	scaler := dataset.FitScaler(d)
	std := scaler.Apply(d)

	m := &mlr{scaler: scaler, numClasses: k}
	m.w = make([][]float64, k)
	for c := range m.w {
		m.w[c] = make([]float64, in+1)
	}

	rng := rand.New(rand.NewSource(t.Seed + 29))
	order := make([]int, std.Len())
	for i := range order {
		order[i] = i
	}
	probs := make([]float64, k)
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		eta := lr / (1 + float64(epoch)/50)
		for _, idx := range order {
			ins := std.Instances[idx]
			m.softmax(ins.Features, probs)
			for c := 0; c < k; c++ {
				target := 0.0
				if c == ins.Label {
					target = 1
				}
				g := probs[c] - target
				w := m.w[c]
				for j, x := range ins.Features {
					w[j] -= eta * (g*x + l2*w[j])
				}
				w[in] -= eta * g // bias: unregularised
			}
		}
	}
	return m, nil
}

// softmax fills probs with the class probabilities of standardised
// features.
func (m *mlr) softmax(stdFeatures []float64, probs []float64) {
	in := len(stdFeatures)
	maxLogit := math.Inf(-1)
	for c := range m.w {
		w := m.w[c]
		s := w[in]
		for j, x := range stdFeatures {
			s += w[j] * x
		}
		probs[c] = s
		if s > maxLogit {
			maxLogit = s
		}
	}
	var sum float64
	for c := range probs {
		probs[c] = math.Exp(probs[c] - maxLogit)
		sum += probs[c]
	}
	for c := range probs {
		probs[c] /= sum
	}
}

// NumClasses implements ml.Classifier.
func (m *mlr) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the input layer's width.
func (m *mlr) InputWidth() int { return len(m.w[0]) - 1 }

// Scores implements ml.Classifier: calibrated class probabilities.
func (m *mlr) Scores(features []float64) []float64 {
	std := append([]float64(nil), features[:m.InputWidth()]...)
	m.scaler.Transform(std)
	probs := make([]float64, m.numClasses)
	m.softmax(std, probs)
	return probs
}

// Predict implements ml.Classifier.
func (m *mlr) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// Complexity reports the weight-matrix shape of an MLR model, if c is one
// (used by the hardware cost model).
func Complexity(c ml.Classifier) (inputs, outputs int, ok bool) {
	m, isMLR := c.(*mlr)
	if !isMLR {
		return 0, 0, false
	}
	return len(m.w[0]) - 1, len(m.w), true
}
