// Package nn implements the multilayer perceptron (WEKA's
// MultilayerPerceptron with one hidden layer): sigmoid hidden units, a
// softmax output layer trained by stochastic gradient descent with
// momentum on cross-entropy loss, with z-score input standardisation fitted
// on the training set.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// MLPTrainer trains a single-hidden-layer perceptron.
type MLPTrainer struct {
	// Hidden is the hidden layer width; 0 uses WEKA's 'a' heuristic,
	// (features + classes) / 2, with a floor of 3.
	Hidden int
	// Epochs is the number of training passes (default 120).
	Epochs int
	// LearningRate (default 0.3) and Momentum (default 0.2) are WEKA's
	// defaults.
	LearningRate float64
	Momentum     float64
	// Dropout is the hidden-unit dropout probability in [0, 0.9]
	// (default 0 — plain WEKA behaviour). The paper notes MLP overfits
	// with many HPC features and that "techniques such as dropout can
	// be employed, but at the cost of additional overhead"; this knob
	// implements that suggestion (inverted dropout: activations are
	// scaled during training, inference is unchanged).
	Dropout float64
	// Seed drives weight initialisation, epoch shuffling and dropout
	// masks.
	Seed int64
}

// Name implements ml.Trainer.
func (t *MLPTrainer) Name() string { return "MLP" }

type mlp struct {
	scaler *dataset.Scaler
	// w1[h][in+1]: hidden weights with trailing bias; w2[k][hidden+1].
	w1, w2     [][]float64
	numClasses int
}

// Train implements ml.Trainer.
func (t *MLPTrainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	if d.Len() == 0 {
		return nil, errors.New("nn: MLP on empty dataset")
	}
	in := d.NumFeatures()
	k := d.NumClasses()
	hidden := t.Hidden
	if hidden <= 0 {
		hidden = (in + k) / 2
		if hidden < 3 {
			hidden = 3
		}
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 120
	}
	lr := t.LearningRate
	if lr <= 0 {
		lr = 0.3
	}
	mom := t.Momentum
	if mom < 0 {
		mom = 0
	} else if mom == 0 {
		mom = 0.2
	}

	scaler := dataset.FitScaler(d)
	std := scaler.Apply(d)

	rng := rand.New(rand.NewSource(t.Seed + 17))
	m := &mlp{scaler: scaler, numClasses: k}
	m.w1 = randWeights(rng, hidden, in+1)
	m.w2 = randWeights(rng, k, hidden+1)
	dw1 := zeros(hidden, in+1)
	dw2 := zeros(k, hidden+1)

	dropout := t.Dropout
	if dropout < 0 || dropout > 0.9 {
		return nil, fmt.Errorf("nn: dropout %v outside [0, 0.9]", dropout)
	}
	dropScale := 1.0
	if dropout > 0 {
		dropScale = 1 / (1 - dropout)
	}

	order := make([]int, std.Len())
	for i := range order {
		order[i] = i
	}
	hiddenOut := make([]float64, hidden+1) // post-dropout activations (+bias)
	sig := make([]float64, hidden)         // raw sigmoid activations
	keep := make([]bool, hidden)
	outDelta := make([]float64, k)
	hidDelta := make([]float64, hidden)
	probs := make([]float64, k)

	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Learning-rate decay keeps late epochs from oscillating.
		eta := lr / (1 + float64(epoch)/float64(epochs))
		for _, idx := range order {
			ins := std.Instances[idx]

			// Forward with inverted dropout on the hidden layer.
			for h := 0; h < hidden; h++ {
				w := m.w1[h]
				s := w[in] // bias
				for j, x := range ins.Features {
					s += w[j] * x
				}
				a := 1 / (1 + math.Exp(-s))
				sig[h] = a
				if dropout > 0 && rng.Float64() < dropout {
					keep[h] = false
					hiddenOut[h] = 0
				} else {
					keep[h] = true
					hiddenOut[h] = a * dropScale
				}
			}
			hiddenOut[hidden] = 1
			m.outputSoftmax(hiddenOut, probs)

			// Output deltas: softmax + cross entropy.
			for c := 0; c < k; c++ {
				target := 0.0
				if c == ins.Label {
					target = 1
				}
				outDelta[c] = probs[c] - target
			}
			// Hidden deltas: gradient flows only through kept units.
			for h := 0; h < hidden; h++ {
				if !keep[h] {
					hidDelta[h] = 0
					continue
				}
				var s float64
				for c := 0; c < k; c++ {
					s += outDelta[c] * m.w2[c][h]
				}
				hidDelta[h] = s * dropScale * sig[h] * (1 - sig[h])
			}
			// Weight updates with momentum.
			for c := 0; c < k; c++ {
				for h := 0; h <= hidden; h++ {
					dw2[c][h] = mom*dw2[c][h] - eta*outDelta[c]*hiddenOut[h]
					m.w2[c][h] += dw2[c][h]
				}
			}
			for h := 0; h < hidden; h++ {
				for j := 0; j < in; j++ {
					dw1[h][j] = mom*dw1[h][j] - eta*hidDelta[h]*ins.Features[j]
					m.w1[h][j] += dw1[h][j]
				}
				dw1[h][in] = mom*dw1[h][in] - eta*hidDelta[h]
				m.w1[h][in] += dw1[h][in]
			}
		}
	}
	return m, nil
}

func randWeights(rng *rand.Rand, rows, cols int) [][]float64 {
	w := make([][]float64, rows)
	scale := 1 / math.Sqrt(float64(cols))
	for i := range w {
		w[i] = make([]float64, cols)
		for j := range w[i] {
			w[i][j] = rng.NormFloat64() * scale
		}
	}
	return w
}

func zeros(rows, cols int) [][]float64 {
	w := make([][]float64, rows)
	for i := range w {
		w[i] = make([]float64, cols)
	}
	return w
}

// forward computes the network output for standardised features; hiddenOut
// must have length hidden+1 and receives the hidden activations plus a
// trailing 1 for the bias.
func (m *mlp) forward(stdFeatures []float64, hiddenOut []float64) []float64 {
	hidden := len(m.w1)
	for h := 0; h < hidden; h++ {
		w := m.w1[h]
		s := w[len(w)-1] // bias
		for j, x := range stdFeatures {
			s += w[j] * x
		}
		hiddenOut[h] = 1 / (1 + math.Exp(-s))
	}
	hiddenOut[hidden] = 1
	probs := make([]float64, len(m.w2))
	m.outputSoftmax(hiddenOut, probs)
	return probs
}

// outputSoftmax fills probs with the softmax of the output layer applied to
// the (bias-extended) hidden activations.
func (m *mlp) outputSoftmax(hiddenOut []float64, probs []float64) {
	maxLogit := math.Inf(-1)
	for c := range m.w2 {
		var s float64
		for h, a := range hiddenOut {
			s += m.w2[c][h] * a
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
func (m *mlp) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the input layer's width.
func (m *mlp) InputWidth() int { return len(m.w1[0]) - 1 }

// Scores implements ml.Classifier.
func (m *mlp) Scores(features []float64) []float64 {
	std := append([]float64(nil), features[:m.InputWidth()]...)
	m.scaler.Transform(std)
	hiddenOut := make([]float64, len(m.w1)+1)
	return m.forward(std, hiddenOut)
}

// Predict implements ml.Classifier.
func (m *mlp) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// Complexity reports the layer widths of an MLP model, if c is one (used by
// the hardware cost model).
func Complexity(c ml.Classifier) (inputs, hidden, outputs int, ok bool) {
	m, isMLP := c.(*mlp)
	if !isMLP {
		return 0, 0, 0, false
	}
	return len(m.w1[0]) - 1, len(m.w1), len(m.w2), true
}
