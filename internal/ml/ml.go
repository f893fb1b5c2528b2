// Package ml defines the classifier and trainer interfaces shared by the
// from-scratch learning algorithms in its subpackages (tree: J48/C4.5,
// rules: JRip/RIPPER and OneR, nn: multilayer perceptron, linear:
// multinomial logistic regression, ensemble: AdaBoost.M1), plus the
// evaluation drivers that compute the paper's metrics over a test set.
package ml

import (
	"errors"
	"fmt"

	"twosmart/internal/dataset"
	"twosmart/internal/metrics"
)

// Classifier is a trained model.
type Classifier interface {
	// NumClasses returns the size of the label space the model was
	// trained on.
	NumClasses() int
	// InputWidth returns how many leading features Scores and Predict
	// read: a feature vector narrower than this is out of range for the
	// model.
	InputWidth() int
	// Scores returns one non-negative confidence per class; higher means
	// more likely. Scores need not be calibrated probabilities but must
	// be usable for ranking (ROC/AUC).
	Scores(features []float64) []float64
	// Predict returns the index of the most likely class.
	Predict(features []float64) int
}

// Trainer builds a classifier from a training set.
type Trainer interface {
	// Name identifies the algorithm (e.g. "J48", "JRip", "MLP", "OneR").
	Name() string
	// Train fits a model on the dataset.
	Train(d *dataset.Dataset) (Classifier, error)
}

// Compiled is an evaluator lowered from a trained Classifier into a flat,
// cache-friendly form for the run-time hot path. Implementations own any
// scratch space they need, so the steady-state Score methods perform zero
// heap allocations — which also means a Compiled value is NOT safe for
// concurrent use; compile one evaluator per goroutine (compilation is a
// cheap flattening pass).
type Compiled interface {
	// NumClasses returns the size of the label space.
	NumClasses() int
	// ScoresInto writes one non-negative confidence per class into dst,
	// which must have length NumClasses. The scores are identical to the
	// source Classifier's Scores output (see TestCompiledEquivalence).
	// dst and features are only accessed during the call; the caller may
	// reuse both buffers.
	ScoresInto(dst, features []float64)
	// Predict returns the index of the most likely class without
	// allocating.
	Predict(features []float64) int
}

// Compilable is implemented by classifiers that can lower themselves into
// a Compiled evaluator. All learners in this repository's subpackages
// (tree, rules, nn, linear, ensemble) implement it.
type Compilable interface {
	Compile() Compiled
}

// Compile lowers a trained classifier into its allocation-free compiled
// form. Classifiers that do not implement Compilable are wrapped in an
// interpreted adapter that preserves semantics but still allocates per
// call, so Compile never fails and callers need not special-case exotic
// models.
func Compile(c Classifier) Compiled {
	if cc, ok := c.(Compilable); ok {
		return cc.Compile()
	}
	return interpreted{c}
}

// interpreted adapts a plain Classifier to the Compiled interface without
// changing its (allocating) evaluation path.
type interpreted struct{ c Classifier }

func (a interpreted) NumClasses() int { return a.c.NumClasses() }
func (a interpreted) ScoresInto(dst, features []float64) {
	copy(dst, a.c.Scores(features))
}
func (a interpreted) Predict(features []float64) int { return a.c.Predict(features) }

// Argmax returns the index of the largest value, breaking ties toward the
// lower index. It returns -1 for an empty slice.
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// BinaryEval bundles the paper's binary detection metrics: F-measure
// (detection rate), AUC (robustness) and their product (detection
// performance).
type BinaryEval struct {
	Confusion   metrics.Confusion
	F1          float64
	AUC         float64
	Performance float64
	Accuracy    float64
}

// PositiveClass is the label index treated as "malware" in binary tasks.
const PositiveClass = 1

// EvaluateBinary scores a two-class model on a test set, treating class 1
// as positive (malware).
func EvaluateBinary(c Classifier, test *dataset.Dataset) (BinaryEval, error) {
	if test.NumClasses() != 2 {
		return BinaryEval{}, fmt.Errorf("ml: binary evaluation on %d-class dataset", test.NumClasses())
	}
	if c.NumClasses() != 2 {
		return BinaryEval{}, fmt.Errorf("ml: binary evaluation of %d-class model", c.NumClasses())
	}
	if test.Len() == 0 {
		return BinaryEval{}, errors.New("ml: empty test set")
	}
	var conf metrics.Confusion
	scores := make([]float64, test.Len())
	labels := make([]bool, test.Len())
	for i, ins := range test.Instances {
		s := c.Scores(ins.Features)
		pred := Argmax(s)
		conf.Add(ins.Label == PositiveClass, pred == PositiveClass)
		// Ranking score: margin toward the positive class.
		denom := s[0] + s[1]
		if denom > 0 {
			scores[i] = s[1] / denom
		} else {
			scores[i] = 0.5
		}
		labels[i] = ins.Label == PositiveClass
	}
	auc, err := metrics.AUC(scores, labels)
	if err != nil {
		return BinaryEval{}, err
	}
	f1 := conf.F1()
	return BinaryEval{
		Confusion:   conf,
		F1:          f1,
		AUC:         auc,
		Performance: metrics.DetectionPerformance(f1, auc),
		Accuracy:    conf.Accuracy(),
	}, nil
}

// EvaluateMulti scores a k-class model on a test set.
func EvaluateMulti(c Classifier, test *dataset.Dataset) (*metrics.MultiConfusion, error) {
	if c.NumClasses() != test.NumClasses() {
		return nil, fmt.Errorf("ml: model has %d classes, test set %d", c.NumClasses(), test.NumClasses())
	}
	if test.Len() == 0 {
		return nil, errors.New("ml: empty test set")
	}
	mc := metrics.NewMultiConfusion(test.ClassNames)
	for _, ins := range test.Instances {
		if err := mc.Add(ins.Label, c.Predict(ins.Features)); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// TrainAndEvaluate is the standard protocol used throughout the
// experiments: split, train, evaluate binary detection metrics.
func TrainAndEvaluate(tr Trainer, d *dataset.Dataset, trainFrac float64, seed int64) (BinaryEval, error) {
	train, test, err := d.Split(trainFrac, seed)
	if err != nil {
		return BinaryEval{}, err
	}
	model, err := tr.Train(train)
	if err != nil {
		return BinaryEval{}, fmt.Errorf("ml: training %s: %w", tr.Name(), err)
	}
	return EvaluateBinary(model, test)
}
