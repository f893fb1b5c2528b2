package hls

import (
	"testing"

	"twosmart/internal/ml"
	"twosmart/internal/ml/ensemble"
	"twosmart/internal/ml/linear"
	"twosmart/internal/ml/mltest"
	"twosmart/internal/ml/nn"
	"twosmart/internal/ml/rules"
	"twosmart/internal/ml/tree"
)

func trainAll(t *testing.T, dims int) map[string]ml.Classifier {
	t.Helper()
	d := mltest.Gaussian2Class(400, dims, 2.0, 1)
	out := map[string]ml.Classifier{}
	for name, tr := range map[string]ml.Trainer{
		"J48":  &tree.J48Trainer{},
		"JRip": &rules.JRipTrainer{Seed: 1},
		"OneR": &rules.OneRTrainer{},
		"MLP":  &nn.MLPTrainer{Epochs: 10, Seed: 1},
		"MLR":  &linear.MLRTrainer{Epochs: 10, Seed: 1},
	} {
		m, err := tr.Train(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = m
	}
	return out
}

func TestEstimateAllFamilies(t *testing.T) {
	models := trainAll(t, 4)
	for name, m := range models {
		cost, err := Estimate(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cost.LatencyCycles <= 0 || cost.LUTs <= 0 {
			t.Fatalf("%s: degenerate cost %+v", name, cost)
		}
		if cost.AreaPercent() <= 0 || cost.AreaPercent() > 100 {
			t.Fatalf("%s: area %.2f%%", name, cost.AreaPercent())
		}
	}
}

// The paper's Table V relations: MLP dominates both latency and area; OneR
// decides in a single cycle; trees and rules cost a few percent.
func TestPaperCostRelations(t *testing.T) {
	models := trainAll(t, 8)
	cost := func(name string) Cost {
		c, err := Estimate(models[name])
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mlp, j48, jrip, oner := cost("MLP"), cost("J48"), cost("JRip"), cost("OneR")

	if oner.LatencyCycles != 1 {
		t.Fatalf("OneR latency=%d, want 1", oner.LatencyCycles)
	}
	for name, c := range map[string]Cost{"J48": j48, "JRip": jrip, "OneR": oner} {
		if mlp.LatencyCycles <= 5*c.LatencyCycles {
			t.Fatalf("MLP latency %d not far above %s latency %d", mlp.LatencyCycles, name, c.LatencyCycles)
		}
		if mlp.AreaPercent() <= 3*c.AreaPercent() {
			t.Fatalf("MLP area %.1f%% not far above %s area %.1f%%", mlp.AreaPercent(), name, c.AreaPercent())
		}
		if c.AreaPercent() > 15 {
			t.Fatalf("%s area %.1f%%: lightweight classifiers must stay small", name, c.AreaPercent())
		}
	}
	if mlp.AreaPercent() < 10 {
		t.Fatalf("MLP area %.1f%%, expected tens of percent", mlp.AreaPercent())
	}
}

// Fewer input features must not increase cost for feature-scaling models.
func TestFewerFeaturesCostLess(t *testing.T) {
	big := trainAll(t, 8)
	small := trainAll(t, 4)
	for _, name := range []string{"MLP", "MLR"} {
		cb, _ := Estimate(big[name])
		cs, _ := Estimate(small[name])
		if cs.LatencyCycles >= cb.LatencyCycles {
			t.Fatalf("%s: 4-feature latency %d >= 8-feature %d", name, cs.LatencyCycles, cb.LatencyCycles)
		}
		if cs.LUTs >= cb.LUTs {
			t.Fatalf("%s: 4-feature LUTs %d >= 8-feature %d", name, cs.LUTs, cb.LUTs)
		}
	}
}

// Boosting multiplies latency roughly by the member count but adds only
// modest area thanks to datapath sharing.
func TestBoostedCostShape(t *testing.T) {
	d := mltest.Gaussian2Class(500, 4, 1.2, 2)
	baseTr := &tree.J48Trainer{MaxDepth: 4}
	base, err := baseTr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	boostedTr := &ensemble.AdaBoostTrainer{Base: &tree.J48Trainer{MaxDepth: 4}, Rounds: 10, Seed: 3}
	boosted, err := boostedTr.Train(d)
	if err != nil {
		t.Fatal(err)
	}
	members, _, _ := ensemble.Members(boosted)
	if len(members) < 3 {
		t.Skipf("only %d members; boosting collapsed on this data", len(members))
	}
	cb, err := Estimate(base)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Estimate(boosted)
	if err != nil {
		t.Fatal(err)
	}
	if ce.LatencyCycles < 3*cb.LatencyCycles {
		t.Fatalf("boosted latency %d not well above base %d", ce.LatencyCycles, cb.LatencyCycles)
	}
	if ce.AreaPercent() > float64(len(members))*cb.AreaPercent() {
		t.Fatalf("boosted area %.1f%% shows no datapath sharing (members=%d, base=%.1f%%)",
			ce.AreaPercent(), len(members), cb.AreaPercent())
	}
	if ce.AreaPercent() <= cb.AreaPercent() {
		t.Fatal("boosting cannot be free in area")
	}
}

func TestEstimateUnsupported(t *testing.T) {
	if _, err := Estimate(fakeClassifier{}); err == nil {
		t.Fatal("unsupported classifier accepted")
	}
}

type fakeClassifier struct{}

func (fakeClassifier) NumClasses() int            { return 2 }
func (fakeClassifier) InputWidth() int            { return 0 }
func (fakeClassifier) Scores([]float64) []float64 { return []float64{1, 0} }
func (fakeClassifier) Predict([]float64) int      { return 0 }

func TestCostHelpers(t *testing.T) {
	c := Cost{LatencyCycles: 7, LUTs: 100, FFs: 50, DSPs: 1}
	if c.LatencyNs() != 70 {
		t.Fatalf("LatencyNs=%d", c.LatencyNs())
	}
	sum := c.Add(Cost{LatencyCycles: 3, LUTs: 10})
	if sum.LatencyCycles != 10 || sum.LUTs != 110 {
		t.Fatalf("Add=%+v", sum)
	}
	if ceilLog2(1) != 1 || ceilLog2(2) != 1 || ceilLog2(5) != 3 {
		t.Fatal("ceilLog2 wrong")
	}
}

func TestTwoStageComposition(t *testing.T) {
	models := trainAll(t, 4)
	stage2 := []ml.Classifier{models["J48"], models["JRip"], models["OneR"], models["MLP"]}
	cost, err := TwoStage(models["MLR"], stage2)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := Estimate(models["MLR"])
	var worst, areaSum int
	for _, m := range stage2 {
		c, _ := Estimate(m)
		areaSum += c.LUTs
		if c.LatencyCycles > worst {
			worst = c.LatencyCycles
		}
	}
	if cost.LatencyCycles != s1.LatencyCycles+worst {
		t.Fatalf("latency=%d, want stage1 %d + worst stage2 %d", cost.LatencyCycles, s1.LatencyCycles, worst)
	}
	if cost.LUTs != s1.LUTs+areaSum {
		t.Fatalf("LUTs=%d, want sum %d", cost.LUTs, s1.LUTs+areaSum)
	}
	if _, err := TwoStage(nil, stage2); err == nil {
		t.Fatal("nil stage-1 accepted")
	}
	if _, err := TwoStage(models["MLR"], nil); err == nil {
		t.Fatal("empty stage-2 accepted")
	}
	if _, err := TwoStage(fakeClassifier{}, stage2); err == nil {
		t.Fatal("unsupported stage-1 accepted")
	}
}
