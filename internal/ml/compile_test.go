package ml_test

import (
	"math"
	"math/rand"
	"testing"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
	"twosmart/internal/ml/bayes"
	"twosmart/internal/ml/ensemble"
	"twosmart/internal/ml/linear"
	"twosmart/internal/ml/mltest"
	"twosmart/internal/ml/nn"
	"twosmart/internal/ml/rules"
	"twosmart/internal/ml/tree"
)

// compileCases lists every classifier kind the compiled inference layer
// must lower, each with a training set matching its role in the paper
// (binary stage-2 detectors; multiclass stage-1 MLR).
func compileCases() []struct {
	name    string
	trainer ml.Trainer
	data    *dataset.Dataset
	// exact demands bit-identical scores; the folded-standardisation
	// models (MLP, MLR) are allowed last-ulp drift.
	exact bool
} {
	binary := mltest.Gaussian2Class(400, 6, 1.5, 11)
	multi := mltest.MultiClass(500, 5, 6, 2.0, 12)
	return []struct {
		name    string
		trainer ml.Trainer
		data    *dataset.Dataset
		exact   bool
	}{
		{"J48", &tree.J48Trainer{}, binary, true},
		{"JRip", &rules.JRipTrainer{Seed: 3}, binary, true},
		{"OneR", &rules.OneRTrainer{}, binary, true},
		{"MLP", &nn.MLPTrainer{Seed: 3, Epochs: 40}, binary, false},
		{"MLR", &linear.MLRTrainer{Seed: 3, Epochs: 60}, multi, false},
		{"AdaBoost-J48", &ensemble.AdaBoostTrainer{Base: &tree.J48Trainer{}, Rounds: 5, Seed: 3}, binary, true},
		{"J48-multiclass", &tree.J48Trainer{}, multi, true},
		{"JRip-multiclass", &rules.JRipTrainer{Seed: 3}, multi, true},
	}
}

// randomVectors draws feature vectors covering and exceeding the training
// data's range, so compiled evaluators are exercised on interpolated and
// extrapolated inputs alike.
func randomVectors(d *dataset.Dataset, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	dims := d.NumFeatures()
	out := make([][]float64, n)
	for i := range out {
		fv := make([]float64, dims)
		if i%4 == 0 {
			// Wide uniform draws stress out-of-distribution routing.
			for j := range fv {
				fv[j] = (rng.Float64() - 0.5) * 20
			}
		} else {
			src := d.Instances[rng.Intn(d.Len())]
			for j := range fv {
				fv[j] = src.Features[j] + rng.NormFloat64()*0.7
			}
		}
		out[i] = fv
	}
	return out
}

// TestCompiledEquivalence is the compiled layer's contract: for every
// classifier kind, the compiled evaluator must produce identical
// predictions (and matching scores) to the interpreted model over
// randomized feature vectors.
func TestCompiledEquivalence(t *testing.T) {
	for _, tc := range compileCases() {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.trainer.Train(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := model.(ml.Compilable); !ok {
				t.Fatalf("%T does not implement ml.Compilable", model)
			}
			c := ml.Compile(model)
			if c.NumClasses() != model.NumClasses() {
				t.Fatalf("compiled NumClasses = %d, interpreted %d", c.NumClasses(), model.NumClasses())
			}
			tol := 0.0
			if !tc.exact {
				tol = 1e-9
			}
			dst := make([]float64, c.NumClasses())
			for i, fv := range randomVectors(tc.data, 2000, 100) {
				want := model.Scores(fv)
				c.ScoresInto(dst, fv)
				for cls := range want {
					if diff := math.Abs(dst[cls] - want[cls]); diff > tol {
						t.Fatalf("vector %d class %d: compiled score %v, interpreted %v (diff %g)", i, cls, dst[cls], want[cls], diff)
					}
				}
				if got, want := c.Predict(fv), model.Predict(fv); got != want {
					t.Fatalf("vector %d: compiled Predict = %d, interpreted %d", i, got, want)
				}
			}
		})
	}
}

// TestInputWidth: every learner reads only its leading InputWidth
// features, interpreted and compiled alike, so a feature vector cut to
// that width (with no spare capacity to read past) scores exactly as the
// full one.
func TestInputWidth(t *testing.T) {
	cases := compileCases()
	cases = append(cases, struct {
		name    string
		trainer ml.Trainer
		data    *dataset.Dataset
		exact   bool
	}{"NaiveBayes", &bayes.NBTrainer{}, mltest.Gaussian2Class(400, 6, 1.5, 11), true})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.trainer.Train(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			w := model.InputWidth()
			if w < 1 || w > tc.data.NumFeatures() {
				t.Fatalf("InputWidth = %d, want 1..%d", w, tc.data.NumFeatures())
			}
			c := ml.Compile(model)
			full, cut := make([]float64, c.NumClasses()), make([]float64, c.NumClasses())
			for i, fv := range randomVectors(tc.data, 200, 101) {
				narrow := fv[:w:w]
				want, got := model.Scores(fv), model.Scores(narrow)
				c.ScoresInto(full, fv)
				c.ScoresInto(cut, narrow)
				for cls := range want {
					if got[cls] != want[cls] || cut[cls] != full[cls] {
						t.Fatalf("vector %d class %d: cut to %d features scores %v (compiled %v), full %v (compiled %v)",
							i, cls, w, got[cls], cut[cls], want[cls], full[cls])
					}
				}
			}
		})
	}
}

// TestCompiledZeroAlloc pins the compiled layer's allocation contract: the
// steady-state ScoresInto/Predict paths of every lowered kind must not
// touch the heap. This is the per-model half of the contract the CI
// benchmark gate enforces end to end.
func TestCompiledZeroAlloc(t *testing.T) {
	for _, tc := range compileCases() {
		t.Run(tc.name, func(t *testing.T) {
			model, err := tc.trainer.Train(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			c := ml.Compile(model)
			dst := make([]float64, c.NumClasses())
			fv := append([]float64(nil), tc.data.Instances[0].Features...)
			if allocs := testing.AllocsPerRun(200, func() {
				c.ScoresInto(dst, fv)
			}); allocs != 0 {
				t.Errorf("ScoresInto allocates %.1f objects/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				c.Predict(fv)
			}); allocs != 0 {
				t.Errorf("Predict allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestCompileFallback verifies that classifiers without a lowering (here:
// Naive Bayes) still work through Compile's interpreted adapter.
func TestCompileFallback(t *testing.T) {
	d := mltest.Gaussian2Class(200, 4, 2, 7)
	model, err := (&bayes.NBTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	c := ml.Compile(model)
	dst := make([]float64, c.NumClasses())
	for _, ins := range d.Instances[:50] {
		c.ScoresInto(dst, ins.Features)
		want := model.Scores(ins.Features)
		for cls := range want {
			if dst[cls] != want[cls] {
				t.Fatalf("fallback score mismatch: %v vs %v", dst, want)
			}
		}
		if c.Predict(ins.Features) != model.Predict(ins.Features) {
			t.Fatal("fallback Predict mismatch")
		}
	}
}

// TestCompiledSingleLeaf covers the degenerate pure-dataset tree: the
// compiled form has no internal nodes and must still score correctly.
func TestCompiledSingleLeaf(t *testing.T) {
	d := dataset.New([]string{"f0", "f1"}, []string{"benign", "malware"})
	for i := 0; i < 10; i++ {
		d.Add(dataset.Instance{Features: []float64{float64(i), -float64(i)}, Label: 0})
	}
	model, err := (&tree.J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	c := ml.Compile(model)
	fv := []float64{3, 14}
	want := model.Scores(fv)
	dst := make([]float64, 2)
	c.ScoresInto(dst, fv)
	if dst[0] != want[0] || dst[1] != want[1] {
		t.Fatalf("single-leaf scores %v, want %v", dst, want)
	}
	if c.Predict(fv) != 0 {
		t.Fatalf("single-leaf Predict = %d, want 0", c.Predict(fv))
	}
}
