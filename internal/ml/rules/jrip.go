package rules

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"twosmart/internal/dataset"
	"twosmart/internal/ml"
)

// JRipTrainer trains a RIPPER-style rule learner (WEKA's JRip): classes are
// handled in ascending frequency order; for each class, rules are grown on
// two thirds of the data by greedily adding the condition with the best
// FOIL information gain, then pruned on the remaining third by dropping
// trailing conditions to maximise (p-n)/(p+n). Rule addition stops when the
// next rule's pruned accuracy falls below 50% or no positives remain. The
// most frequent class becomes the default. (The implementation omits
// RIPPER's global MDL-based optimisation passes; growing and pruning —
// the parts that determine the rule structure — are faithful.)
type JRipTrainer struct {
	// Seed drives the grow/prune partition shuffle.
	Seed int64
	// MinCover is the minimum number of positives a rule must cover
	// (default 2).
	MinCover int
	// MaxConditions bounds rule length (default 8).
	MaxConditions int
	// Quantiles is the number of candidate thresholds per feature
	// (default 16); thresholds are drawn from covered-instance quantiles.
	Quantiles int
}

// Name implements ml.Trainer.
func (t *JRipTrainer) Name() string { return "JRip" }

// condition is one test: features[feat] <= threshold (le) or > threshold.
type condition struct {
	feat      int
	threshold float64
	le        bool
}

func (c condition) match(x []float64) bool {
	if c.le {
		return x[c.feat] <= c.threshold
	}
	return x[c.feat] > c.threshold
}

// rule predicts class when all conditions match; laplace is its smoothed
// accuracy on the training data, used as the prediction confidence.
type rule struct {
	conds   []condition
	class   int
	laplace float64
}

func (r rule) match(x []float64) bool {
	for _, c := range r.conds {
		if !c.match(x) {
			return false
		}
	}
	return true
}

// jrip is a trained ordered rule list with a default class.
type jrip struct {
	rules       []rule
	defaultDist []float64
	numClasses  int
	featNames   []string
}

// Train implements ml.Trainer.
func (t *JRipTrainer) Train(d *dataset.Dataset) (ml.Classifier, error) {
	if d.Len() == 0 {
		return nil, errors.New("rules: JRip on empty dataset")
	}
	minCover := t.MinCover
	if minCover <= 0 {
		minCover = 2
	}
	maxConds := t.MaxConditions
	if maxConds <= 0 {
		maxConds = 8
	}
	quantiles := t.Quantiles
	if quantiles <= 0 {
		quantiles = 16
	}
	k := d.NumClasses()
	rng := rand.New(rand.NewSource(t.Seed + 1))

	// Order classes by ascending frequency; the last (most frequent) is
	// the default.
	counts := d.ClassCounts()
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] < counts[order[b]] })

	// remaining holds instance indices not yet covered by any rule.
	remaining := make([]int, d.Len())
	for i := range remaining {
		remaining[i] = i
	}

	model := &jrip{numClasses: k, featNames: append([]string(nil), d.FeatureNames...)}
	for _, cls := range order[:k-1] {
		for {
			pos := 0
			for _, idx := range remaining {
				if d.Instances[idx].Label == cls {
					pos++
				}
			}
			if pos < minCover {
				break
			}
			r, ok := growPruneRule(d, remaining, cls, rng, minCover, maxConds, quantiles)
			if !ok {
				break
			}
			model.rules = append(model.rules, r)
			// Remove instances covered by the new rule.
			kept := remaining[:0]
			for _, idx := range remaining {
				if !r.match(d.Instances[idx].Features) {
					kept = append(kept, idx)
				}
			}
			remaining = kept
		}
	}

	// Default distribution from uncovered instances (falling back to the
	// full training distribution when everything is covered).
	dist := make([]float64, k)
	if len(remaining) > 0 {
		for _, idx := range remaining {
			dist[d.Instances[idx].Label]++
		}
	} else {
		for i, c := range counts {
			dist[i] = float64(c)
		}
	}
	var total float64
	for _, v := range dist {
		total += v
	}
	for i := range dist {
		dist[i] = (dist[i] + 1) / (total + float64(k))
	}
	model.defaultDist = dist
	return model, nil
}

// growPruneRule learns one rule for class cls from the remaining instances.
func growPruneRule(d *dataset.Dataset, remaining []int, cls int, rng *rand.Rand, minCover, maxConds, quantiles int) (rule, bool) {
	// 2:1 grow/prune split of the remaining instances.
	shuffled := append([]int(nil), remaining...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := len(shuffled) * 2 / 3
	grow, prune := shuffled[:cut], shuffled[cut:]
	if len(grow) == 0 {
		return rule{}, false
	}

	r := rule{class: cls}
	covered := grow
	for len(r.conds) < maxConds {
		if _, n := coverCounts(d, covered, cls); n == 0 {
			break // rule is pure on the grow set
		}
		cond, gain := bestCondition(d, covered, cls, quantiles)
		if gain <= 0 {
			break
		}
		r.conds = append(r.conds, cond)
		covered = filterCovered(d, covered, cond)
	}
	if len(r.conds) == 0 {
		return rule{}, false
	}

	// Prune: drop trailing conditions to maximise (p-n)/(p+n) on the
	// prune set. An empty prune set keeps the grown rule.
	if len(prune) > 0 {
		bestLen, bestVal := len(r.conds), pruneValue(d, prune, r)
		for l := len(r.conds) - 1; l >= 1; l-- {
			cand := rule{conds: r.conds[:l], class: cls}
			if v := pruneValue(d, prune, cand); v > bestVal {
				bestLen, bestVal = l, v
			}
		}
		r.conds = r.conds[:bestLen]
		if bestVal < 0 {
			return rule{}, false // rule is worse than random on prune data
		}
	}

	// Accept only rules that still cover enough positives with decent
	// precision on all remaining data.
	p, n := 0, 0
	for _, idx := range remaining {
		if r.match(d.Instances[idx].Features) {
			if d.Instances[idx].Label == cls {
				p++
			} else {
				n++
			}
		}
	}
	if p < minCover || p <= n {
		return rule{}, false
	}
	r.laplace = float64(p+1) / float64(p+n+2)
	return r, true
}

func coverCounts(d *dataset.Dataset, idxs []int, cls int) (p, n int) {
	for _, idx := range idxs {
		if d.Instances[idx].Label == cls {
			p++
		} else {
			n++
		}
	}
	return
}

func filterCovered(d *dataset.Dataset, idxs []int, c condition) []int {
	out := make([]int, 0, len(idxs))
	for _, idx := range idxs {
		if c.match(d.Instances[idx].Features) {
			out = append(out, idx)
		}
	}
	return out
}

// bestCondition finds the condition with the highest FOIL gain over the
// currently covered grow instances.
func bestCondition(d *dataset.Dataset, covered []int, cls int, quantiles int) (condition, float64) {
	p0, n0 := coverCounts(d, covered, cls)
	if p0 == 0 {
		return condition{}, 0
	}
	base := math.Log2(float64(p0) / float64(p0+n0))

	var best condition
	bestGain := 0.0
	vals := make([]float64, 0, len(covered))
	for f := 0; f < d.NumFeatures(); f++ {
		vals = vals[:0]
		for _, idx := range covered {
			vals = append(vals, d.Instances[idx].Features[f])
		}
		sort.Float64s(vals)
		// Candidate thresholds at quantiles of the covered values.
		for q := 1; q < quantiles; q++ {
			th := vals[q*(len(vals)-1)/quantiles]
			for _, le := range []bool{true, false} {
				c := condition{feat: f, threshold: th, le: le}
				p1, n1 := 0, 0
				for _, idx := range covered {
					if c.match(d.Instances[idx].Features) {
						if d.Instances[idx].Label == cls {
							p1++
						} else {
							n1++
						}
					}
				}
				if p1 == 0 {
					continue
				}
				gain := float64(p1) * (math.Log2(float64(p1)/float64(p1+n1)) - base)
				if gain > bestGain {
					bestGain = gain
					best = c
				}
			}
		}
	}
	return best, bestGain
}

// pruneValue is RIPPER's pruning metric (p-n)/(p+n) on the prune set.
func pruneValue(d *dataset.Dataset, prune []int, r rule) float64 {
	p, n := 0, 0
	for _, idx := range prune {
		if r.match(d.Instances[idx].Features) {
			if d.Instances[idx].Label == r.class {
				p++
			} else {
				n++
			}
		}
	}
	if p+n == 0 {
		return 0
	}
	return float64(p-n) / float64(p+n)
}

// NumClasses implements ml.Classifier.
func (m *jrip) NumClasses() int { return m.numClasses }

// InputWidth implements ml.Classifier: the highest feature index a
// condition tests, plus one.
func (m *jrip) InputWidth() int {
	w := 0
	for _, r := range m.rules {
		for _, c := range r.conds {
			w = max(w, c.feat+1)
		}
	}
	return w
}

// Scores implements ml.Classifier: the first matching rule wins with its
// Laplace confidence; otherwise the default distribution applies.
func (m *jrip) Scores(features []float64) []float64 {
	for _, r := range m.rules {
		if r.match(features) {
			out := make([]float64, m.numClasses)
			rest := (1 - r.laplace) / float64(m.numClasses-1)
			for i := range out {
				out[i] = rest
			}
			out[r.class] = r.laplace
			return out
		}
	}
	return append([]float64(nil), m.defaultDist...)
}

// Predict implements ml.Classifier.
func (m *jrip) Predict(features []float64) int { return ml.Argmax(m.Scores(features)) }

// NumRules returns the size of the learned rule list (used by the hardware
// cost model).
func (m *jrip) NumRules() int { return len(m.rules) }

// String renders the rule list compactly.
func (m *jrip) String() string {
	var b strings.Builder
	for _, r := range m.rules {
		fmt.Fprintf(&b, "IF ")
		for i, c := range r.conds {
			if i > 0 {
				b.WriteString(" AND ")
			}
			op := ">"
			if c.le {
				op = "<="
			}
			fmt.Fprintf(&b, "%s %s %.4g", m.featNames[c.feat], op, c.threshold)
		}
		fmt.Fprintf(&b, " THEN class=%d (%.2f)\n", r.class, r.laplace)
	}
	fmt.Fprintf(&b, "DEFAULT dist=%v\n", m.defaultDist)
	return b.String()
}

// Complexity reports the rule count and total condition count of a JRip
// model, if c is one (used by the hardware cost model).
func Complexity(c ml.Classifier) (rules, conditions int, ok bool) {
	m, isJrip := c.(*jrip)
	if !isJrip {
		return 0, 0, false
	}
	for _, r := range m.rules {
		conditions += len(r.conds)
	}
	return len(m.rules), conditions, true
}

// OneRComplexity reports the bin count of a OneR model, if c is one.
func OneRComplexity(c ml.Classifier) (bins int, ok bool) {
	if m, isOneR := c.(*oneR); isOneR {
		return len(m.dists), true
	}
	return 0, false
}
