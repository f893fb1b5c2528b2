// Package tree implements J48, WEKA's C4.5 decision-tree learner: binary
// splits on numeric attributes chosen by gain ratio, with C4.5-style
// pessimistic error pruning at confidence factor 0.25.
package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// J48Trainer trains a C4.5 decision tree.
type J48Trainer struct {
	// MinLeaf is the minimum number of instances per leaf (WEKA -M,
	// default 2).
	MinLeaf int
	// MaxDepth bounds tree depth (default 25).
	MaxDepth int
	// Confidence is the pruning confidence factor (WEKA -C, default
	// 0.25); higher means less pruning. Set to 1 to disable pruning.
	Confidence float64
}

// Name implements ml.Trainer.
func (t *J48Trainer) Name() string { return "J48" }

type node struct {
	// Internal nodes.
	feat      int
	threshold float64
	left      *node // features[feat] <= threshold
	right     *node
	// All nodes carry the training class distribution for scoring and
	// pruning.
	counts []float64
	leaf   bool
}

type j48 struct {
	root       *node
	numClasses int
	featNames  []string
}

// Train implements ml.Trainer.
func (t *J48Trainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	if d.Len() == 0 {
		return nil, errors.New("tree: J48 on empty dataset")
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 25
	}
	conf := t.Confidence
	if conf <= 0 {
		conf = 0.25
	}

	idxs := make([]int, d.Len())
	for i := range idxs {
		idxs[i] = i
	}
	b := &builder{d: d, k: d.NumClasses(), minLeaf: minLeaf, maxDepth: maxDepth}
	root := b.build(idxs, 0)
	if conf < 1 {
		prune(root, zFromConfidence(conf))
	}
	return &j48{root: root, numClasses: d.NumClasses(), featNames: append([]string(nil), d.FeatureNames...)}, nil
}

type builder struct {
	d        *dataset.Dataset
	k        int
	minLeaf  int
	maxDepth int
}

func (b *builder) classCounts(idxs []int) []float64 {
	counts := make([]float64, b.k)
	for _, i := range idxs {
		counts[b.d.Instances[i].Label]++
	}
	return counts
}

func entropy(counts []float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

func isPure(counts []float64) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func (b *builder) build(idxs []int, depth int) *node {
	counts := b.classCounts(idxs)
	n := &node{counts: counts, leaf: true}
	if len(idxs) < 2*b.minLeaf || depth >= b.maxDepth || isPure(counts) {
		return n
	}
	feat, threshold, ok := b.bestSplit(idxs, counts)
	if !ok {
		return n
	}
	var left, right []int
	for _, i := range idxs {
		if b.d.Instances[i].Features[feat] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.minLeaf || len(right) < b.minLeaf {
		return n
	}
	n.leaf = false
	n.feat = feat
	n.threshold = threshold
	n.left = b.build(left, depth+1)
	n.right = b.build(right, depth+1)
	return n
}

// bestSplit selects the (feature, threshold) with the highest gain ratio
// among splits with above-average information gain, as C4.5 does.
func (b *builder) bestSplit(idxs []int, counts []float64) (int, float64, bool) {
	baseH := entropy(counts)
	total := float64(len(idxs))

	type cand struct {
		feat      int
		threshold float64
		gain      float64
		ratio     float64
	}
	var cands []cand

	vals := make([]float64, len(idxs))
	labels := make([]int, len(idxs))
	order := make([]int, len(idxs))
	for f := 0; f < b.d.NumFeatures(); f++ {
		for j, i := range idxs {
			vals[j] = b.d.Instances[i].Features[f]
			labels[j] = b.d.Instances[i].Label
			order[j] = j
		}
		sort.Slice(order, func(a, c int) bool { return vals[order[a]] < vals[order[c]] })

		leftCounts := make([]float64, b.k)
		rightCounts := append([]float64(nil), counts...)
		bestGain, bestRatio, bestTh := 0.0, 0.0, 0.0
		found := false
		for j := 0; j < len(order)-1; j++ {
			o := order[j]
			leftCounts[labels[o]]++
			rightCounts[labels[o]]--
			v, next := vals[o], vals[order[j+1]]
			if v == next {
				continue // only split between distinct values
			}
			nl := float64(j + 1)
			nr := total - nl
			if int(nl) < b.minLeaf || int(nr) < b.minLeaf {
				continue
			}
			gain := baseH - (nl/total)*entropy(leftCounts) - (nr/total)*entropy(rightCounts)
			if gain <= 1e-12 {
				continue
			}
			pl := nl / total
			splitInfo := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
			if splitInfo <= 0 {
				continue
			}
			ratio := gain / splitInfo
			if ratio > bestRatio {
				bestGain, bestRatio, bestTh = gain, ratio, (v+next)/2
				found = true
			}
		}
		if found {
			cands = append(cands, cand{feat: f, threshold: bestTh, gain: bestGain, ratio: bestRatio})
		}
	}
	if len(cands) == 0 {
		return 0, 0, false
	}
	// C4.5: among candidates with at least average gain, pick the best
	// gain ratio.
	var avgGain float64
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))
	best := -1
	for i, c := range cands {
		if c.gain+1e-12 >= avgGain && (best < 0 || c.ratio > cands[best].ratio) {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return cands[best].feat, cands[best].threshold, true
}

// zFromConfidence converts a C4.5 confidence factor into the corresponding
// standard-normal quantile via a rational approximation (Abramowitz &
// Stegun 26.2.23). CF=0.25 gives z~0.6745.
func zFromConfidence(cf float64) float64 {
	p := cf
	if p <= 0 {
		p = 1e-6
	}
	if p >= 1 {
		return 0
	}
	t := math.Sqrt(-2 * math.Log(p))
	return t - (2.515517+0.802853*t+0.010328*t*t)/(1+1.432788*t+0.189269*t*t+0.001308*t*t*t)
}

// pessimisticErrors is C4.5's upper confidence bound on the error count of
// a leaf with n instances and e errors.
func pessimisticErrors(e, n, z float64) float64 {
	if n == 0 {
		return 0
	}
	f := e / n
	ucb := (f + z*z/(2*n) + z*math.Sqrt(f/n-f*f/n+z*z/(4*n*n))) / (1 + z*z/n)
	return ucb * n
}

// prune applies bottom-up pessimistic pruning: a subtree is replaced by a
// leaf when the leaf's estimated errors do not exceed the subtree's.
func prune(n *node, z float64) float64 {
	total, errs := leafStats(n.counts)
	leafEst := pessimisticErrors(errs, total, z)
	if n.leaf {
		return leafEst
	}
	subtreeEst := prune(n.left, z) + prune(n.right, z)
	if leafEst <= subtreeEst+1e-9 {
		n.leaf = true
		n.left, n.right = nil, nil
		return leafEst
	}
	return subtreeEst
}

func leafStats(counts []float64) (total, errs float64) {
	var maxC float64
	for _, c := range counts {
		total += c
		if c > maxC {
			maxC = c
		}
	}
	return total, total - maxC
}

// NumClasses implements ml.Classifier.
func (m *j48) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the highest feature index a node
// tests, plus one.
func (m *j48) InputWidth() int {
	var width func(n *node) int
	width = func(n *node) int {
		if n.leaf {
			return 0
		}
		return max(n.feat+1, width(n.left), width(n.right))
	}
	return width(m.root)
}

// Scores implements ml.Classifier: the Laplace-smoothed distribution of the
// reached leaf.
func (m *j48) Scores(features []float64) []float64 {
	n := m.root
	for !n.leaf {
		if features[n.feat] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	out := make([]float64, m.numClasses)
	var total float64
	for _, c := range n.counts {
		total += c
	}
	for i, c := range n.counts {
		out[i] = (c + 1) / (total + float64(m.numClasses))
	}
	return out
}

// Predict implements ml.Classifier.
func (m *j48) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// Size returns the number of nodes and leaves, and the maximum depth (used
// by the hardware cost model).
func (m *j48) Size() (nodes, leaves, depth int) {
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		nodes++
		if d > depth {
			depth = d
		}
		if n.leaf {
			leaves++
			return
		}
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(m.root, 1)
	return
}

// String renders the tree.
func (m *j48) String() string {
	var b strings.Builder
	var walk func(n *node, indent string)
	walk = func(n *node, indent string) {
		if n.leaf {
			fmt.Fprintf(&b, "%sleaf %v\n", indent, n.counts)
			return
		}
		fmt.Fprintf(&b, "%s%s <= %.4g\n", indent, m.featNames[n.feat], n.threshold)
		walk(n.left, indent+"  ")
		walk(n.right, indent+"  ")
	}
	walk(m.root, "")
	return b.String()
}

// Complexity reports node/leaf/depth counts of a J48 model, if c is one
// (used by the hardware cost model).
func Complexity(c ml.Classifier) (nodes, leaves, depth int, ok bool) {
	if m, isTree := c.(*j48); isTree {
		nodes, leaves, depth = m.Size()
		return nodes, leaves, depth, true
	}
	return 0, 0, 0, false
}
