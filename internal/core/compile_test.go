package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"twosmart/internal/parallel"
	"twosmart/internal/workload"
)

// compiledFixtures trains the run-time (plain) and boosted detectors once
// for the compiled-path tests.
func compiledFixtures(t *testing.T, boost bool) (*Detector, *CompiledDetector) {
	t.Helper()
	data, err := testData(t).SelectByName(CommonFeatures)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(data, TrainConfig{Boost: boost, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return det, det.Compile()
}

// sameVerdict compares verdicts allowing last-ulp confidence drift from
// the compiled MLP/MLR standardisation folding (see internal/ml/nn).
func sameVerdict(got, want Verdict) bool {
	return got.PredictedClass == want.PredictedClass &&
		got.Malware == want.Malware &&
		got.Stage2Kind == want.Stage2Kind &&
		math.Abs(got.Confidence-want.Confidence) <= 1e-9
}

// TestCompiledDetectorEquivalence verifies the compiled detector against
// the interpreted one over the corpus samples plus randomized
// perturbations: identical verdicts, identical malware scores.
func TestCompiledDetectorEquivalence(t *testing.T) {
	for _, boost := range []bool{false, true} {
		name := "plain"
		if boost {
			name = "boosted"
		}
		t.Run(name, func(t *testing.T) {
			det, cd := compiledFixtures(t, boost)
			if cd.NumFeatures() != len(CommonFeatures) {
				t.Fatalf("NumFeatures = %d, want %d", cd.NumFeatures(), len(CommonFeatures))
			}
			rng := rand.New(rand.NewSource(9))
			data, err := testData(t).SelectByName(CommonFeatures)
			if err != nil {
				t.Fatal(err)
			}
			fv := make([]float64, len(CommonFeatures))
			for trial := 0; trial < 3000; trial++ {
				src := data.Instances[rng.Intn(data.Len())]
				for j, v := range src.Features {
					fv[j] = v * (1 + 0.2*rng.NormFloat64())
				}
				want, err := det.Detect(fv)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cd.Detect(fv)
				if err != nil {
					t.Fatal(err)
				}
				if !sameVerdict(got, want) {
					t.Fatalf("trial %d: compiled verdict %+v, interpreted %+v", trial, got, want)
				}
				wantScore, err := det.MalwareScore(fv)
				if err != nil {
					t.Fatal(err)
				}
				gotScore, err := cd.MalwareScore(fv)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(gotScore-wantScore) > 1e-9 {
					t.Fatalf("trial %d: compiled score %v, interpreted %v", trial, gotScore, wantScore)
				}
			}
		})
	}
}

// TestDetectScoredBatch pins the serving-path batch primitive against the
// per-sample calls: verdicts match Detect and scores match MalwareScore,
// bit for bit, from one evaluation per sample; mismatched lengths and a
// wrong-width sample are errors.
func TestDetectScoredBatch(t *testing.T) {
	_, cd := compiledFixtures(t, false)
	data, err := testData(t).SelectByName(CommonFeatures)
	if err != nil {
		t.Fatal(err)
	}
	n := 96
	samples := make([][]float64, n)
	for i := range samples {
		samples[i] = data.Instances[i%data.Len()].Features
	}
	verdicts := make([]Verdict, n)
	scores := make([]float64, n)
	if err := cd.DetectScoredBatch(verdicts, scores, samples); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		want, err := cd.Detect(fv)
		if err != nil {
			t.Fatal(err)
		}
		wantScore, err := cd.MalwareScore(fv)
		if err != nil {
			t.Fatal(err)
		}
		if verdicts[i] != want {
			t.Fatalf("sample %d: verdict %+v, want %+v", i, verdicts[i], want)
		}
		if math.Float64bits(scores[i]) != math.Float64bits(wantScore) {
			t.Fatalf("sample %d: score %v, want %v", i, scores[i], wantScore)
		}
	}
	if err := cd.DetectScoredBatch(verdicts[:1], scores, samples); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := cd.DetectScoredBatch(verdicts, scores[:1], samples); err == nil {
		t.Fatal("short scores accepted")
	}
	if err := cd.DetectScoredBatch(verdicts[:1], scores[:1], [][]float64{{1}}); err == nil {
		t.Fatal("wrong-width sample accepted")
	}
}

// TestDetectAll pins the offline fan-out against per-sample Detect and
// MalwareScore, bit for bit, at the default worker count (0), one worker,
// uneven chunks, and more workers than samples. 50 workers over 97
// samples is a split where chunks of ceil(97/50) = 2 would run out
// before the last worker. A wrong-width sample is an error, and no
// samples score to nothing.
func TestDetectAll(t *testing.T) {
	det, cd := compiledFixtures(t, false)
	data, err := testData(t).SelectByName(CommonFeatures)
	if err != nil {
		t.Fatal(err)
	}
	n := 97
	samples := make([][]float64, n)
	wantVerdicts := make([]Verdict, n)
	wantScores := make([]float64, n)
	for i := range samples {
		samples[i] = data.Instances[i%data.Len()].Features
		if wantVerdicts[i], err = cd.Detect(samples[i]); err != nil {
			t.Fatal(err)
		}
		if wantScores[i], err = cd.MalwareScore(samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, workers := range []int{0, 1, 3, 50, n + 5} {
		verdicts, scores, err := det.DetectAll(ctx, samples, parallel.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(verdicts) != n || len(scores) != n {
			t.Fatalf("workers %d: %d verdicts, %d scores for %d samples", workers, len(verdicts), len(scores), n)
		}
		for i := range samples {
			if verdicts[i] != wantVerdicts[i] || math.Float64bits(scores[i]) != math.Float64bits(wantScores[i]) {
				t.Fatalf("workers %d, sample %d: %+v %v, want %+v %v",
					workers, i, verdicts[i], scores[i], wantVerdicts[i], wantScores[i])
			}
		}
	}
	bad := append(append([][]float64(nil), samples...), []float64{1})
	if _, _, err := det.DetectAll(ctx, bad, parallel.Options{Workers: 3}); err == nil {
		t.Fatal("wrong-width sample accepted")
	}
	if v, s, err := det.DetectAll(ctx, nil, parallel.Options{}); err != nil || len(v) != 0 || len(s) != 0 {
		t.Fatalf("no samples: %d verdicts, %d scores, err %v", len(v), len(s), err)
	}
}

// TestCompiledDetectorZeroAlloc pins the hot-path allocation contract: the
// compiled Detect, MalwareScore and DetectScoredBatch must not touch the
// heap.
func TestCompiledDetectorZeroAlloc(t *testing.T) {
	for _, boost := range []bool{false, true} {
		name := "plain"
		if boost {
			name = "boosted"
		}
		t.Run(name, func(t *testing.T) {
			_, cd := compiledFixtures(t, boost)
			data, err := testData(t).SelectByName(CommonFeatures)
			if err != nil {
				t.Fatal(err)
			}
			fv := append([]float64(nil), data.Instances[0].Features...)
			samples := make([][]float64, 32)
			for i := range samples {
				samples[i] = data.Instances[i%data.Len()].Features
			}
			verdicts := make([]Verdict, len(samples))
			scores := make([]float64, len(samples))
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := cd.Detect(fv); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Detect allocates %.1f objects/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(200, func() {
				if _, err := cd.MalwareScore(fv); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("MalwareScore allocates %.1f objects/op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := cd.DetectScoredBatch(verdicts, scores, samples); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("DetectScoredBatch allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestCompiledStage2Kind checks the compiled dispatch table mirrors the
// interpreted detector's per-class algorithm selection.
func TestCompiledStage2Kind(t *testing.T) {
	det, cd := compiledFixtures(t, false)
	for _, class := range workload.MalwareClasses() {
		want, _, err := det.Stage2Info(class)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cd.Stage2Kind(class)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: compiled kind %v, want %v", class, got, want)
		}
	}
	if _, err := cd.Stage2Kind(workload.Benign); err == nil {
		t.Fatal("benign stage-2 kind accepted")
	}
}
