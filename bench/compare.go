package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minPairs is the fewest alternating parent/change pairs compare accepts.
const minPairs = 10

// Verdicts compare can give one (workload, metric).
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// quartiles returns Q1, median and Q3 of xs with the method of Python's
// statistics.quantiles(xs, n=4) (the default, exclusive one), so the
// spread compare uses matches what a reader recomputes by hand.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// comparison is the judgement of one (workload, metric) over paired runs.
type comparison struct {
	workload, metric  string
	pairs, wins, ties int
	base, head        [3]float64 // q1, median, q3
	verdict           string
}

// judge applies the paired rule: a regression is a median worse than the
// parent's by more than the bound; otherwise a spread wider than the
// bound leaves the metric unresolved unless every change run beats every
// parent run; a gain needs the change to win at least nine tenths of the
// pairs (ties count for neither) and a median gap wider than the parent's
// interquartile range.
func judge(d metricDef, base, head []float64) comparison {
	c := comparison{metric: d.Name, pairs: min(len(base), len(head))}
	base, head = base[:c.pairs], head[:c.pairs]
	better := func(a, b float64) bool {
		if d.higherIsBetter() {
			return a > b
		}
		return a < b
	}
	for i := range base {
		switch {
		case better(head[i], base[i]):
			c.wins++
		case head[i] == base[i]:
			c.ties++
		}
	}
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.head[0], c.head[1], c.head[2] = quartiles(head)
	improvement := c.head[1] - c.base[1]
	if !d.higherIsBetter() {
		improvement = -improvement
	}
	scale := math.Abs(c.base[1])
	spread := math.Max(relSpread(c.base), relSpread(c.head))
	allBetter := len(base) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	gain := 10*c.wins >= 9*c.pairs && improvement > c.base[2]-c.base[0]
	switch {
	case -improvement > d.Bound*scale:
		c.verdict = verdictRegression
	case spread > d.Bound && !allBetter:
		c.verdict = verdictUnresolved
	case gain:
		c.verdict = verdictGain
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// relSpread is the interquartile range as a share of the median.
func relSpread(q [3]float64) float64 {
	if q[1] == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareRuns pairs the i-th base run of each workload with the i-th head
// run and judges every end-to-end metric. Untraced runs only: traced runs
// carry per-layer metrics.
func compareRuns(defs []metricDef, base, head []result) ([]comparison, error) {
	byWorkload := func(rs []result) (map[string][]result, []string) {
		m := map[string][]result{}
		var order []string
		for _, r := range rs {
			if r.Trace != 0 {
				continue
			}
			if _, seen := m[r.Workload]; !seen {
				order = append(order, r.Workload)
			}
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m, order
	}
	b, order := byWorkload(base)
	h, _ := byWorkload(head)
	var out []comparison
	for _, w := range order {
		n := min(len(b[w]), len(h[w]))
		if n < minPairs {
			return nil, fmt.Errorf("workload %s: %d pairs, need at least %d", w, n, minPairs)
		}
		for _, d := range defs {
			bv, hv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				bv[i], hv[i] = b[w][i].Metrics[d.Name].Value, h[w][i].Metrics[d.Name].Value
			}
			c := judge(d, bv, hv)
			c.workload = w
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no workload has untraced runs on both sides")
	}
	return out, nil
}

func printComparisons(w io.Writer, cs []comparison) {
	fmt.Fprintf(w, "%-15s %-19s %30s %30s %7s  %s\n", "workload", "metric",
		"base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-15s %-19s %30s %30s %4d/%-2d  %s\n", c.workload, c.metric,
			fmtQ(c.base), fmtQ(c.head), c.wins, c.pairs, c.verdict)
	}
}

func fmtQ(q [3]float64) string { return fmt.Sprintf("%.5g [%.5g, %.5g]", q[1], q[0], q[2]) }

// compareMain runs `bench compare BASE HEAD` and exits non-zero on any
// regression.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: bench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	head, err := readResults(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	cs, err := compareRuns(cfg.EndToEnd, base, head)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printComparisons(stdout, cs)
	for _, c := range cs {
		if c.verdict == verdictRegression {
			return 1
		}
	}
	return 0
}
