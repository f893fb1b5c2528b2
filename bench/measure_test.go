package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"twosmart/internal/fleet"
)

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100000 * 1e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %.0f ns, want %.0f within 1%%", q, got, want)
		}
	}
	var a, b hist
	a.add(time.Millisecond)
	b.add(3 * time.Millisecond)
	a.merge(&b)
	if a.n != 2 || a.quantile(1) < float64(3*time.Millisecond) {
		t.Errorf("merged hist n=%d max=%v", a.n, a.quantile(1))
	}
	var small hist
	small.add(-time.Second) // a verdict stamped before its due time clamps to 0
	if small.quantile(0.5) > 1 {
		t.Errorf("negative duration landed at %v", small.quantile(0.5))
	}
}

// TestTailRule pins "the highest percentile with at least ten samples
// beyond it".
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      uint64
		label  string
		beyond uint64
	}{
		{19, "", 0},
		{20, "p50", 10},
		{99, "p50", 49},
		{100, "p90", 10},
		{999, "p90", 99},
		{1000, "p99", 10},
		{1024000, "p99.999", 10},
		{10000000, "p99.9999", 10},
	} {
		got, ok := tailOf(c.n)
		if c.label == "" {
			if ok {
				t.Errorf("n=%d: got %s, want none", c.n, got)
			}
			continue
		}
		if !ok || got.label != c.label || got.beyond != c.beyond {
			t.Errorf("n=%d: got %s (ok=%v), want %s with %d beyond", c.n, got, ok, c.label, c.beyond)
		}
		if math.Abs(float64(c.n)*(1-got.q)-float64(got.beyond)) > 1 {
			t.Errorf("n=%d: q=%v disagrees with %d beyond", c.n, got.q, got.beyond)
		}
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (smart serve (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 130 0 0 20 0 8 0 100 1000 500"
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 380 * time.Second / clockTicks; cpu != want {
		t.Errorf("cpu = %s, want %s", cpu, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("a truncated stat line parsed")
	}
	status := "Name:\tsmartserve\nVmPeak:\t  812345 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   19000 kB\n"
	if hwm, err := parseStatusKB(status, "VmHWM"); err != nil || hwm != 20480 {
		t.Errorf("VmHWM = %d, %v; want 20480", hwm, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key parsed")
	}
	// The live reader works on this very process.
	st, err := readProcStat(os.Getpid())
	if err != nil || st.hwmKB == 0 {
		t.Errorf("own /proc stat: %+v, %v", st, err)
	}
}

func parse(t *testing.T, text string) *fleet.Metrics {
	t.Helper()
	m, err := fleet.ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWindowDeltas checks counters and pooled histogram quantiles over a
// window, from two scrapes of two processes.
func TestWindowDeltas(t *testing.T) {
	hist := func(le1, le2, inf float64) string {
		return "# TYPE serve_batch_size histogram\n" +
			`serve_batch_size_bucket{le="1"} ` + ftoa(le1) + "\n" +
			`serve_batch_size_bucket{le="10"} ` + ftoa(le2) + "\n" +
			`serve_batch_size_bucket{le="+Inf"} ` + ftoa(inf) + "\n"
	}
	counters := func(v float64, relayed float64) string {
		return "# TYPE serve_verdicts_total counter\nserve_verdicts_total " + ftoa(v) + "\n" +
			`cluster_verdicts_relayed_total{shard="a"} ` + ftoa(relayed) + "\n"
	}
	w := windowDelta{
		before: snapshot{
			stats:   []procStat{{cpu: time.Second}, {cpu: 2 * time.Second}},
			metrics: []*fleet.Metrics{parse(t, counters(100, 5)+hist(10, 10, 10)), parse(t, counters(50, 0)+hist(0, 0, 0))},
		},
		after: snapshot{
			stats:   []procStat{{cpu: 3 * time.Second}, {cpu: 2500 * time.Millisecond}},
			metrics: []*fleet.Metrics{parse(t, counters(400, 25)+hist(10, 110, 110)), parse(t, counters(50, 0)+hist(0, 100, 100))},
		},
	}
	if got := w.cpu(0) + w.cpu(1); got != 2500*time.Millisecond {
		t.Errorf("cpu delta %s, want 2.5s", got)
	}
	if got := w.counter(0, "serve_verdicts_total"); got != 300 {
		t.Errorf("verdict delta %v, want 300", got)
	}
	if got := w.relayedPerShard(0); got["a"] != 20 {
		t.Errorf("relayed per shard %v, want a=20", got)
	}
	// Inside the window all 200 observations fell in (1, 10]: the warm-up's
	// ten observations at <=1 must not pull the median down.
	if got := w.quantile([]int{0, 1}, "serve_batch_size", 0.5); got != 5.5 {
		t.Errorf("pooled window p50 %v, want 5.5", got)
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "live", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "send", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "send", Start: 20, End: 40},  // overlaps the first
		{ID: 4, Parent: 1, Name: "recv", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.name] = s
	}
	if got["live"].self != 60 || got["live"].total != 100 {
		t.Errorf("live self %d total %d, want 60 and 100", got["live"].self, got["live"].total)
	}
	if got["send"].count != 2 || got["send"].self != 40 {
		t.Errorf("send %+v, want 2 spans with 40 self", got["send"])
	}
}
