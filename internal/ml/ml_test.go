package ml

import (
	"math"
	"testing"

	"twosmart/internal/dataset"
	"twosmart/internal/ml/mltest"
)

// thresholdClassifier is a trivial binary stub: positive iff feature 0 > t.
type thresholdClassifier struct{ t float64 }

func (c thresholdClassifier) NumClasses() int { return 2 }
func (c thresholdClassifier) InputWidth() int { return 1 }
func (c thresholdClassifier) Scores(x []float64) []float64 {
	// Smooth score so ROC has many thresholds.
	s := 1 / (1 + math.Exp(-(x[0] - c.t)))
	return []float64{1 - s, s}
}
func (c thresholdClassifier) Predict(x []float64) int { return Argmax(c.Scores(x)) }

type thresholdTrainer struct{}

func (thresholdTrainer) Name() string { return "stub" }
func (thresholdTrainer) Train(d *dataset.Dataset) (Classifier, error) {
	return thresholdClassifier{t: 0.5}, nil
}

func TestArgmax(t *testing.T) {
	if Argmax(nil) != -1 {
		t.Fatal("empty argmax must be -1")
	}
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{2, 2}) != 0 {
		t.Fatal("ties must break low")
	}
}

func TestEvaluateBinaryOnSeparableData(t *testing.T) {
	d := mltest.Gaussian2Class(600, 3, 4.0, 1)
	ev, err := EvaluateBinary(thresholdClassifier{t: 2.0}, d)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.9 {
		t.Fatalf("F1=%v on well-separated data", ev.F1)
	}
	if ev.AUC < 0.95 {
		t.Fatalf("AUC=%v on well-separated data", ev.AUC)
	}
	if math.Abs(ev.Performance-ev.F1*ev.AUC) > 1e-12 {
		t.Fatal("performance must be F1*AUC")
	}
	if ev.Confusion.Total() != 600 {
		t.Fatal("confusion total wrong")
	}
}

func TestEvaluateBinaryValidation(t *testing.T) {
	multi := mltest.MultiClass(30, 3, 2, 2, 1)
	if _, err := EvaluateBinary(thresholdClassifier{}, multi); err == nil {
		t.Fatal("multiclass test set accepted")
	}
	empty := dataset.New([]string{"a"}, []string{"x", "y"})
	if _, err := EvaluateBinary(thresholdClassifier{}, empty); err == nil {
		t.Fatal("empty test set accepted")
	}
}

func TestEvaluateMulti(t *testing.T) {
	d := mltest.Gaussian2Class(100, 2, 3, 2)
	mc, err := EvaluateMulti(thresholdClassifier{t: 1.5}, d)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Total() != 100 {
		t.Fatal("total wrong")
	}
	if mc.Accuracy() < 0.8 {
		t.Fatalf("accuracy=%v", mc.Accuracy())
	}
	multi := mltest.MultiClass(30, 3, 2, 2, 1)
	if _, err := EvaluateMulti(thresholdClassifier{}, multi); err == nil {
		t.Fatal("class-count mismatch accepted")
	}
}

func TestTrainAndEvaluate(t *testing.T) {
	d := mltest.Gaussian2Class(400, 2, 3, 3)
	ev, err := TrainAndEvaluate(thresholdTrainer{}, d, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.8 {
		t.Fatalf("F1=%v", ev.F1)
	}
	if _, err := TrainAndEvaluate(thresholdTrainer{}, d, 1.5, 1); err == nil {
		t.Fatal("bad split fraction accepted")
	}
}
