package session

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/monitor"
	"twosmart/internal/telemetry"
)

// TestNewScoringRejectsBadMonitorConfig checks that an invalid smoothing
// config fails at construction, not at the first stream open.
func TestNewScoringRejectsBadMonitorConfig(t *testing.T) {
	_, err := NewScoring(ScoringConfig{
		Source:  func() Generation { return Generation{} },
		Emit:    discardEmitter{},
		Monitor: monitor.Config{Alpha: 2},
	})
	if err == nil {
		t.Fatal("alpha 2 accepted")
	}
}

// TestOpenStreamCompilesOncePerDetector pins that a connection compiles
// a detector once, not once per stream. After the first open under a
// generation, opening and closing a stream allocates nothing (no compiled
// copy, and a closed stream's record and monitor serve the next open),
// and every stream opened under one detector holds the same compiled
// instance. A
// generation with another detector compiles its own; streams opened
// before keep theirs, and a swap back to the first detector compiles it
// again.
func TestOpenStreamCompilesOncePerDetector(t *testing.T) {
	det, _ := testDetector(t)
	blob, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.UnmarshalDetector(blob) // same model, another detector
	if err != nil {
		t.Fatal(err)
	}
	gen := Generation{Detector: det, Version: 1}
	h, err := NewScoring(ScoringConfig{
		Source: func() Generation { return gen },
		Emit:   discardEmitter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	open := func(id uint32) *scoredStream {
		t.Helper()
		st, err := h.OpenStream(id, fmt.Sprintf("app-%d", id))
		if err != nil {
			t.Fatal(err)
		}
		return st.(*scoredStream)
	}

	first := open(1)
	allocs := testing.AllocsPerRun(100, func() {
		st, err := h.OpenStream(2, "app-2")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("OpenStream + Close under an already compiled detector: %v allocs, want 0", allocs)
	}
	if second := open(3); second.det != first.det {
		t.Fatal("two streams opened under one detector hold different compiled instances")
	}

	gen = Generation{Detector: other, Version: 2}
	swapped := open(4)
	if swapped.det == first.det {
		t.Fatal("a stream opened under another detector shares the first detector's compiled instance")
	}
	if open(5).det != swapped.det {
		t.Fatal("two streams opened under the second detector hold different compiled instances")
	}
	if swapped.version != 2 || first.version != 1 {
		t.Fatalf("epoch versions %d and %d, want 1 and 2", first.version, swapped.version)
	}
	gen = Generation{Detector: det, Version: 3}
	back := open(6)
	if back.det == swapped.det || back.det == first.det {
		t.Fatal("a swap back to the first detector did not compile it again")
	}
}

// TestScoringCascadeSeriesBounded checks that the cascade's telemetry
// does not grow with the number of distinct apps a connection streams:
// after 1,000 apps opened, scored and closed, the registry exposes the
// same six cascade_* series as after one.
func TestScoringCascadeSeriesBounded(t *testing.T) {
	det, rows := testDetector(t)
	env, err := anomaly.Train(core.CommonFeatures, rows, anomaly.TrainConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	gen := Generation{Detector: det, Cascade: env.Compile(), CascadeThreshold: env.Threshold}
	reg := telemetry.New()
	h, err := NewScoring(ScoringConfig{
		Source:    func() Generation { return gen },
		Emit:      discardEmitter{},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	b := Batch{
		Samples: rows[:batch],
		Seqs:    make([]uint32, batch),
		Ats:     make([]time.Time, batch),
		Origins: make([]int64, batch),
	}
	stream := func(i int) {
		st, err := h.OpenStream(uint32(i), fmt.Sprintf("app-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Process(b); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(0); err != nil {
			t.Fatal(err)
		}
	}
	series := func() []string {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, "cascade_") {
				out = append(out, line)
			}
		}
		return out
	}

	stream(0)
	one := series()
	for i := 1; i < 1000; i++ {
		stream(i)
	}
	if got := series(); len(got) != len(one) {
		t.Fatalf("after 1000 apps: %d cascade_* series, want %d as after one app", len(got), len(one))
	}
	if len(one) != 6 {
		t.Fatalf("%d cascade_* series, want the 6 fleet-wide families:\n%s", len(one), strings.Join(one, "\n"))
	}
}
