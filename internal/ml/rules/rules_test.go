package rules

import (
	"strings"
	"testing"

	"twosmart/internal/ml"
	"twosmart/internal/ml/mltest"
)

func TestOneRPicksInformativeFeature(t *testing.T) {
	d := mltest.OneInformative(400, 5, 3, 4.0, 1)
	model, err := (&OneRTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	idx, name, ok := FeatureOf(model)
	if !ok {
		t.Fatal("FeatureOf failed on OneR model")
	}
	if idx != 3 {
		t.Fatalf("OneR picked feature %d (%s), want 3", idx, name)
	}
	ev, err := ml.EvaluateBinary(model, d)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.9 {
		t.Fatalf("OneR F1=%v on separable data", ev.F1)
	}
}

func TestOneRGeneralises(t *testing.T) {
	d := mltest.Gaussian2Class(600, 4, 3.0, 2)
	ev, err := ml.TrainAndEvaluate(&OneRTrainer{}, d, 0.6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.85 {
		t.Fatalf("held-out F1=%v", ev.F1)
	}
}

func TestOneRMinBucket(t *testing.T) {
	d := mltest.Gaussian2Class(200, 2, 2.0, 3)
	small, err := (&OneRTrainer{MinBucket: 2}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	large, err := (&OneRTrainer{MinBucket: 50}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := OneRComplexity(small)
	lb, _ := OneRComplexity(large)
	if sb <= lb {
		t.Fatalf("bins small-bucket=%d, large-bucket=%d: larger buckets must give fewer bins", sb, lb)
	}
}

func TestOneREmptyDataset(t *testing.T) {
	d := mltest.Gaussian2Class(0, 2, 1, 1)
	if _, err := (&OneRTrainer{}).Train(d); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestOneRCannotSolveXOR(t *testing.T) {
	// A single-feature rule cannot represent XOR; accuracy stays near 0.5.
	d := mltest.XOR(600, 0.15, 4)
	model, err := (&OneRTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, ins := range d.Instances {
		if model.Predict(ins.Features) == ins.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc > 0.7 {
		t.Fatalf("OneR accuracy %v on XOR; a one-feature rule should fail", acc)
	}
}

func TestOneRMulticlass(t *testing.T) {
	d := mltest.MultiClass(450, 3, 3, 3.5, 5)
	model, err := (&OneRTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ml.EvaluateMulti(model, d)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Accuracy() < 0.85 {
		t.Fatalf("multiclass accuracy=%v", mc.Accuracy())
	}
}

func TestJRipSeparable(t *testing.T) {
	d := mltest.Gaussian2Class(600, 4, 3.0, 6)
	ev, err := ml.TrainAndEvaluate(&JRipTrainer{Seed: 1}, d, 0.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.85 {
		t.Fatalf("JRip F1=%v", ev.F1)
	}
}

func TestJRipSolvesXOR(t *testing.T) {
	// Rules with two conditions represent XOR exactly.
	d := mltest.XOR(800, 0.2, 7)
	ev, err := ml.TrainAndEvaluate(&JRipTrainer{Seed: 2}, d, 0.6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.85 {
		t.Fatalf("JRip F1=%v on XOR; conjunctive rules should solve it", ev.F1)
	}
}

func TestJRipComplexityAndString(t *testing.T) {
	d := mltest.Gaussian2Class(400, 3, 3.0, 10)
	model, err := (&JRipTrainer{Seed: 3}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	nRules, nConds, ok := Complexity(model)
	if !ok {
		t.Fatal("Complexity failed on JRip model")
	}
	if nRules == 0 || nConds == 0 {
		t.Fatalf("rules=%d conds=%d", nRules, nConds)
	}
	s := model.(interface{ String() string }).String()
	if !strings.Contains(s, "IF") || !strings.Contains(s, "DEFAULT") {
		t.Fatalf("String()=%q", s)
	}
	// Complexity on a non-JRip classifier reports !ok.
	if _, _, ok := Complexity(mustOneR(t)); ok {
		t.Fatal("Complexity matched a OneR model")
	}
}

func mustOneR(t *testing.T) ml.Classifier {
	t.Helper()
	m, err := (&OneRTrainer{}).Train(mltest.Gaussian2Class(100, 2, 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJRipDeterministicInSeed(t *testing.T) {
	d := mltest.Gaussian2Class(300, 3, 2.0, 12)
	a, err := (&JRipTrainer{Seed: 5}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&JRipTrainer{Seed: 5}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range d.Instances[:50] {
		if a.Predict(ins.Features) != b.Predict(ins.Features) {
			t.Fatal("same-seed JRip models disagree")
		}
	}
}

func TestJRipMulticlass(t *testing.T) {
	d := mltest.MultiClass(600, 3, 3, 3.5, 13)
	model, err := (&JRipTrainer{Seed: 6}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := ml.EvaluateMulti(model, d)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Accuracy() < 0.8 {
		t.Fatalf("multiclass accuracy=%v", mc.Accuracy())
	}
}

func TestJRipEmptyDataset(t *testing.T) {
	d := mltest.Gaussian2Class(0, 2, 1, 1)
	if _, err := (&JRipTrainer{}).Train(d); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestOneRScoresSumAndRange(t *testing.T) {
	d := mltest.Gaussian2Class(300, 3, 2.0, 14)
	model, err := (&OneRTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range d.Instances[:20] {
		s := model.Scores(ins.Features)
		if len(s) != 2 {
			t.Fatal("score width wrong")
		}
		for _, v := range s {
			if v < 0 || v > 1 {
				t.Fatalf("score %v outside [0,1]", v)
			}
		}
	}
}

func TestTrainerNames(t *testing.T) {
	if (&OneRTrainer{}).Name() != "OneR" || (&JRipTrainer{}).Name() != "JRip" {
		t.Fatal("trainer names wrong")
	}
}

func TestExportJRipAndOneR(t *testing.T) {
	d := mltest.Gaussian2Class(300, 3, 3.0, 15)
	jr, err := (&JRipTrainer{Seed: 9}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	ruleList, defaultClass, ok := ExportJRip(jr)
	if !ok {
		t.Fatal("ExportJRip failed")
	}
	nRules, _, _ := Complexity(jr)
	if len(ruleList) != nRules {
		t.Fatalf("exported %d rules, complexity says %d", len(ruleList), nRules)
	}
	if defaultClass < 0 || defaultClass > 1 {
		t.Fatalf("default class %d", defaultClass)
	}
	if m, ok := jr.(interface{ NumRules() int }); !ok || m.NumRules() != nRules {
		t.Fatal("NumRules mismatch")
	}

	or, err := (&OneRTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	feat, thresholds, classes, ok := ExportOneR(or)
	if !ok {
		t.Fatal("ExportOneR failed")
	}
	if len(classes) != len(thresholds)+1 {
		t.Fatal("bin/threshold shape wrong")
	}
	if feat < 0 || feat >= d.NumFeatures() {
		t.Fatalf("feature %d out of range", feat)
	}
	// Cross-family export returns !ok.
	if _, _, ok := ExportJRip(or); ok {
		t.Fatal("OneR matched as JRip")
	}
	if _, _, _, ok := ExportOneR(jr); ok {
		t.Fatal("JRip matched as OneR")
	}
	if s := or.(interface{ String() string }).String(); !strings.Contains(s, "OneR(") {
		t.Fatalf("OneR String()=%q", s)
	}
}

func TestRulesPersistInPackage(t *testing.T) {
	d := mltest.Gaussian2Class(250, 3, 2.5, 16)
	for name, tr := range map[string]ml.Trainer{"OneR": &OneRTrainer{}, "JRip": &JRipTrainer{Seed: 3}} {
		m, err := tr.Train(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var data []byte
		var ok bool
		if name == "OneR" {
			data, ok, err = MarshalOneR(m)
		} else {
			data, ok, err = MarshalJRip(m)
		}
		if !ok || err != nil {
			t.Fatalf("%s marshal: (%v,%v)", name, ok, err)
		}
		var restored ml.Classifier
		if name == "OneR" {
			restored, err = UnmarshalOneR(data)
		} else {
			restored, err = UnmarshalJRip(data)
		}
		if err != nil {
			t.Fatalf("%s unmarshal: %v", name, err)
		}
		for _, ins := range d.Instances[:30] {
			if restored.Predict(ins.Features) != m.Predict(ins.Features) {
				t.Fatalf("%s round trip changed predictions", name)
			}
		}
	}
	if _, err := UnmarshalOneR([]byte(`{"dists":[[0.5,0.5]],"thresholds":[1],"num_classes":2}`)); err == nil {
		t.Fatal("inconsistent OneR accepted")
	}
	if _, err := UnmarshalJRip([]byte(`{"rules":[{"class":7,"conds":[]}],"default_dist":[0.5,0.5],"num_classes":2}`)); err == nil {
		t.Fatal("out-of-range rule class accepted")
	}
}

// TestUnmarshalRefusesUnscorableRules: each blob is a valid OneR or JRip
// model with a negative feature index, which would panic on the first
// sample, and its decoder must refuse it. The same models with index 0
// load and score through both paths.
func TestUnmarshalRefusesUnscorableRules(t *testing.T) {
	oneR := func(feat string) []byte {
		return []byte(`{"feature":` + feat + `,"thresholds":[1],"dists":[[0.8,0.2],[0.2,0.8]],"num_classes":2}`)
	}
	jrip := func(feat string) []byte {
		return []byte(`{"rules":[{"conds":[{"feat":0,"threshold":5,"le":true},{"feat":` + feat +
			`,"threshold":1,"le":false}],"class":1,"laplace":0.9}],"default_dist":[0.5,0.5],"num_classes":2}`)
	}
	cases := []struct {
		name   string
		decode func([]byte) (ml.Classifier, error)
		blob   func(feat string) []byte
	}{
		{"OneR feature below 0", UnmarshalOneR, oneR},
		{"JRip condition with a negative index", UnmarshalJRip, jrip},
	}
	for _, tc := range cases {
		m, err := tc.decode(tc.blob("0"))
		if err != nil {
			t.Fatalf("%s: the valid model: %v", tc.name, err)
		}
		x := []float64{2}
		m.Scores(x)
		ml.Compile(m).ScoresInto(make([]float64, 2), x)
		if _, err := tc.decode(tc.blob("-1")); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
