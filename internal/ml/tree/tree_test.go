package tree

import (
	"strings"
	"testing"

	"twosmart/internal/ml"
	"twosmart/internal/ml/mltest"
)

func TestJ48Separable(t *testing.T) {
	d := mltest.Gaussian2Class(600, 4, 3.0, 1)
	ev, err := ml.TrainAndEvaluate(&J48Trainer{}, d, 0.6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.9 {
		t.Fatalf("J48 F1=%v", ev.F1)
	}
	if ev.AUC < 0.9 {
		t.Fatalf("J48 AUC=%v", ev.AUC)
	}
}

func TestJ48SolvesXOR(t *testing.T) {
	d := mltest.XOR(800, 0.2, 3)
	ev, err := ml.TrainAndEvaluate(&J48Trainer{}, d, 0.6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ev.F1 < 0.9 {
		t.Fatalf("J48 F1=%v on XOR; an axis-aligned tree should solve it", ev.F1)
	}
}

func TestJ48Multiclass(t *testing.T) {
	d := mltest.MultiClass(600, 4, 3, 3.0, 5)
	model, err := (&J48Trainer{}).Train(d)
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

func TestJ48PruningShrinksTree(t *testing.T) {
	// Weakly separated, noisy data: the unpruned tree overfits; pruning
	// must reduce node count.
	d := mltest.Gaussian2Class(500, 4, 0.8, 6)
	unpruned, err := (&J48Trainer{Confidence: 1}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := (&J48Trainer{Confidence: 0.25}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	un, _, _, _ := Complexity(unpruned)
	pn, _, _, _ := Complexity(pruned)
	if pn >= un {
		t.Fatalf("pruned nodes=%d, unpruned=%d: pruning must shrink the tree", pn, un)
	}
}

func TestJ48MinLeafLimitsGrowth(t *testing.T) {
	d := mltest.Gaussian2Class(400, 3, 1.0, 7)
	small, _ := (&J48Trainer{MinLeaf: 2, Confidence: 1}).Train(d)
	big, _ := (&J48Trainer{MinLeaf: 50, Confidence: 1}).Train(d)
	sn, _, _, _ := Complexity(small)
	bn, _, _, _ := Complexity(big)
	if bn >= sn {
		t.Fatalf("minLeaf=50 nodes=%d, minLeaf=2 nodes=%d", bn, sn)
	}
}

func TestJ48MaxDepth(t *testing.T) {
	d := mltest.Gaussian2Class(400, 3, 1.0, 8)
	model, err := (&J48Trainer{MaxDepth: 3, Confidence: 1}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	_, _, depth, ok := Complexity(model)
	if !ok {
		t.Fatal("Complexity failed")
	}
	if depth > 4 { // root at depth 1 plus 3 levels
		t.Fatalf("depth=%d exceeds limit", depth)
	}
}

func TestJ48PureLeafShortCircuit(t *testing.T) {
	// Perfectly separable one-feature data: the tree needs one split.
	d := mltest.OneInformative(200, 1, 0, 50.0, 9)
	model, err := (&J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	nodes, leaves, _, _ := Complexity(model)
	if nodes != 3 || leaves != 2 {
		t.Fatalf("nodes=%d leaves=%d, want 3/2 for one split", nodes, leaves)
	}
}

func TestJ48EmptyDataset(t *testing.T) {
	d := mltest.Gaussian2Class(0, 2, 1, 1)
	if _, err := (&J48Trainer{}).Train(d); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestJ48ScoresDistribution(t *testing.T) {
	d := mltest.Gaussian2Class(300, 3, 2.0, 10)
	model, err := (&J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range d.Instances[:20] {
		s := model.Scores(ins.Features)
		var sum float64
		for _, v := range s {
			if v <= 0 || v >= 1 {
				t.Fatalf("laplace score %v outside (0,1)", v)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("scores sum to %v", sum)
		}
	}
}

func TestJ48String(t *testing.T) {
	d := mltest.Gaussian2Class(200, 2, 3.0, 11)
	model, _ := (&J48Trainer{}).Train(d)
	s := model.(interface{ String() string }).String()
	if !strings.Contains(s, "<=") || !strings.Contains(s, "leaf") {
		t.Fatalf("String()=%q", s)
	}
}

func TestZFromConfidence(t *testing.T) {
	// CF=0.25 corresponds to z ~ 0.6745 (75th percentile).
	z := zFromConfidence(0.25)
	if z < 0.6 || z > 0.75 {
		t.Fatalf("z(0.25)=%v, want ~0.6745", z)
	}
	if zFromConfidence(1) != 0 {
		t.Fatal("z(1) must be 0 (no pruning pressure)")
	}
}

func TestJ48NameAndExport(t *testing.T) {
	if (&J48Trainer{}).Name() != "J48" {
		t.Fatal("name wrong")
	}
	d := mltest.Gaussian2Class(200, 2, 3.0, 12)
	m, err := (&J48Trainer{MaxDepth: 3}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	root, ok := Export(m)
	if !ok || root == nil {
		t.Fatal("Export failed")
	}
	// The exported tree must agree with the model on every sample when
	// walked directly.
	var walk func(n *Node, fv []float64) int
	walk = func(n *Node, fv []float64) int {
		if n.Leaf {
			return n.Class
		}
		if fv[n.Feat] <= n.Threshold {
			return walk(n.Left, fv)
		}
		return walk(n.Right, fv)
	}
	for _, ins := range d.Instances[:50] {
		if walk(root, ins.Features) != m.Predict(ins.Features) {
			t.Fatal("exported tree disagrees with model")
		}
	}
}

func TestJ48PersistInPackage(t *testing.T) {
	d := mltest.Gaussian2Class(150, 3, 2.0, 13)
	m, err := (&J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := Marshal(m)
	if !ok || err != nil {
		t.Fatalf("Marshal=(%v,%v)", ok, err)
	}
	restored, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range d.Instances[:30] {
		if restored.Predict(ins.Features) != m.Predict(ins.Features) {
			t.Fatal("round trip changed predictions")
		}
	}
	// Non-tree input reports !ok without error.
	if _, ok, err := Marshal(notATree{}); ok || err != nil {
		t.Fatal("foreign classifier matched")
	}
	if _, err := Unmarshal([]byte(`{"nodes":[],"num_classes":2}`)); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := Unmarshal([]byte(`{"nodes":[{"leaf":true,"counts":[1,1]}],"num_classes":0}`)); err == nil {
		t.Fatal("zero classes accepted")
	}
}

// TestUnmarshalRefusesUnscorableTrees: each blob is the two-leaf tree
// below with one part broken so that its first sample would panic, and
// Unmarshal must refuse it. The unbroken tree loads and scores through
// both paths.
func TestUnmarshalRefusesUnscorableTrees(t *testing.T) {
	tree := func(feat, leftCounts string) []byte {
		return []byte(`{"nodes":[{"feat":` + feat + `,"threshold":1,"left":1,"right":2},` +
			`{"leaf":true` + leftCounts + `},{"leaf":true,"counts":[1,3]}],"num_classes":2}`)
	}
	m, err := Unmarshal(tree("0", `,"counts":[3,1]`))
	if err != nil {
		t.Fatalf("valid tree: %v", err)
	}
	x := []float64{0}
	m.Scores(x)
	ml.Compile(m).ScoresInto(make([]float64, 2), x)

	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"negative feature index", tree("-1", `,"counts":[3,1]`)},
		{"leaf without counts", tree("0", ``)},
		{"leaf with fewer counts than classes", tree("0", `,"counts":[3]`)},
		{"leaf with more counts than classes", tree("0", `,"counts":[3,1,1]`)},
	} {
		if _, err := Unmarshal(tc.blob); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

type notATree struct{}

func (notATree) NumClasses() int            { return 2 }
func (notATree) InputWidth() int            { return 0 }
func (notATree) Scores([]float64) []float64 { return []float64{1, 0} }
func (notATree) Predict([]float64) int      { return 0 }
