package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 5.0, 2.2, 8.1, 7.7, 6.3, 0.5, 11.0}, [3]float64{2.2, 5.0, 8.1}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
				break
			}
		}
	}
}

// series returns n values around center, spread ±spread in a fixed
// zig-zag, so the synthetic runs have a known interquartile range.
func series(n int, center, spread float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + spread*float64((i*7)%n-n/2)/float64(n/2)
	}
	return out
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "verdict_p99_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "verdicts_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name       string
		d          metricDef
		base, head []float64
		want       string
	}{
		{"same runs", lower, series(10, 100, 1), series(10, 100, 1), verdictUnchanged},
		{"small drift within bound", lower, series(10, 100, 1), series(10, 104, 1), verdictUnchanged},
		{"clear latency gain", lower, series(10, 100, 1), series(10, 80, 1), verdictGain},
		{"clear throughput gain", higher, series(10, 100, 1), series(10, 120, 1), verdictGain},
		{"latency regression", lower, series(10, 100, 1), series(10, 120, 1), verdictRegression},
		{"throughput regression", higher, series(10, 100, 1), series(10, 85, 1), verdictRegression},
		{"spread wider than bound", lower, series(10, 100, 30), series(10, 95, 30), verdictUnresolved},
		{"wide spread still shows a regression", lower, series(10, 100, 30), series(10, 140, 30), verdictRegression},
		{"noisy but every run better", lower, series(10, 100, 12), series(10, 60, 12), verdictGain},
	} {
		if got := judge(c.d, c.base, c.head); got.verdict != c.want {
			t.Errorf("%s: verdict %s (wins %d/%d, base %v head %v), want %s",
				c.name, got.verdict, got.wins, got.pairs, got.base, got.head, c.want)
		}
	}
	// Nine wins in ten with a gap inside the parent's spread is no gain.
	base := series(10, 100, 4)
	head := make([]float64, 10)
	for i, b := range base {
		head[i] = b - 0.5
	}
	head[0] = base[0] + 1
	if got := judge(lower, base, head); got.verdict != verdictUnchanged || got.wins != 9 {
		t.Errorf("small consistent edge: %s with %d wins, want unchanged with 9", got.verdict, got.wins)
	}
}

func TestCompareRunsNeedsPairs(t *testing.T) {
	defs := []metricDef{{Name: "verdicts_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}
	mk := func(n int, v float64) []result {
		var rs []result
		for i := 0; i < n; i++ {
			rs = append(rs, result{Workload: "w", Metrics: map[string]metricValue{"verdicts_per_s": {Value: v + float64(i%3)}}})
		}
		// A traced run is ignored: it carries per-layer metrics.
		return append(rs, result{Workload: "w", Trace: 1})
	}
	if _, err := compareRuns(defs, mk(9, 100), mk(9, 100)); err == nil {
		t.Error("nine pairs were accepted")
	}
	cs, err := compareRuns(defs, mk(10, 100), mk(12, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].pairs != 10 || cs[0].verdict != verdictUnchanged {
		t.Errorf("comparisons %+v, want one unchanged row over 10 pairs", cs)
	}
}
