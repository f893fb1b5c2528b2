package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/workload"
)

// testCorpus lazily collects one small shared corpus for all core tests.
var (
	corpusOnce sync.Once
	corpusData *dataset.Dataset
	corpusErr  error
)

func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	corpusOnce.Do(func() {
		corpusData, corpusErr = corpus.Collect(corpus.Config{
			Scale:       0.001,
			MinPerClass: 24,
			Budget:      30000,
			Seed:        7,
			Omniscient:  true,
		})
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusData
}

func TestCustomFeatures(t *testing.T) {
	for _, c := range workload.MalwareClasses() {
		feats, err := CustomFeatures(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(feats) != 8 {
			t.Fatalf("%v custom set has %d features, want 8", c, len(feats))
		}
		for i, common := range CommonFeatures {
			if feats[i] != common {
				t.Fatalf("%v feature %d = %q, want common %q", c, i, feats[i], common)
			}
		}
	}
	if _, err := CustomFeatures(workload.Benign); err == nil {
		t.Fatal("benign custom features accepted")
	}
}

func TestKindNames(t *testing.T) {
	if J48.String() != "J48" || OneR.String() != "OneR" {
		t.Fatal("kind names wrong")
	}
	if k, ok := KindByName("MLP"); !ok || k != MLP {
		t.Fatal("KindByName failed")
	}
	if _, ok := KindByName("SVM"); ok {
		t.Fatal("unknown kind resolved")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
	if len(Kinds()) != 4 {
		t.Fatal("Kinds incomplete")
	}
}

func TestNewTrainerPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewTrainer(Kind(99), 0)
}

func TestBinaryTask(t *testing.T) {
	d := testData(t)
	b, err := BinaryTask(d, workload.Virus)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumClasses() != 2 {
		t.Fatal("binary task not binary")
	}
	counts := b.ClassCounts()
	full := d.ClassCounts()
	if counts[0] != full[int(workload.Benign)] || counts[1] != full[int(workload.Virus)] {
		t.Fatalf("binary counts %v vs full %v", counts, full)
	}
	if _, err := BinaryTask(d, workload.Benign); err == nil {
		t.Fatal("benign binary task accepted")
	}
}

func TestTrainAndDetectEndToEnd(t *testing.T) {
	d := testData(t)
	train, test, err := d.Split(0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(train, TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	var malRight, malTotal, benRight, benTotal int
	for _, ins := range test.Instances {
		v, err := det.Detect(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		if workload.Class(ins.Label).IsMalware() {
			malTotal++
			if v.Malware {
				malRight++
			}
		} else {
			benTotal++
			if !v.Malware {
				benRight++
			}
		}
	}
	if malTotal == 0 || benTotal == 0 {
		t.Fatal("test set missing a side")
	}
	recall := float64(malRight) / float64(malTotal)
	specificity := float64(benRight) / float64(benTotal)
	if recall < 0.6 {
		t.Fatalf("end-to-end malware recall=%.2f", recall)
	}
	if specificity < 0.6 {
		t.Fatalf("end-to-end benign specificity=%.2f", specificity)
	}
	t.Logf("end-to-end recall=%.3f specificity=%.3f", recall, specificity)
}

func TestStage1Predict(t *testing.T) {
	d := testData(t)
	train, test, _ := d.Split(0.6, 2)
	det, err := Train(train, TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, ins := range test.Instances {
		c, err := det.Stage1Predict(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		if int(c) == ins.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	// The paper reports ~80% stage-1 accuracy with 4 HPCs; require a
	// loose floor well above the 20% chance level.
	if acc < 0.5 {
		t.Fatalf("stage-1 accuracy=%.2f", acc)
	}
	t.Logf("stage-1 accuracy=%.3f", acc)
}

func TestTrainWithFixedKindsAndFeatures(t *testing.T) {
	d := testData(t)
	feats := map[workload.Class][]string{}
	for _, c := range workload.MalwareClasses() {
		f, err := CustomFeatures(c)
		if err != nil {
			t.Fatal(err)
		}
		feats[c] = f
	}
	det, err := Train(d, TrainConfig{
		Stage2Kinds: map[workload.Class]Kind{
			workload.Virus:    OneR,
			workload.Trojan:   J48,
			workload.Backdoor: JRip,
			workload.Rootkit:  MLP,
		},
		Stage2Features: feats,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	k, names, err := det.Stage2Info(workload.Virus)
	if err != nil {
		t.Fatal(err)
	}
	if k != OneR {
		t.Fatalf("virus stage-2 kind=%v, want OneR", k)
	}
	if len(names) != 8 {
		t.Fatalf("virus stage-2 features=%d, want 8", len(names))
	}
	if _, err := det.Stage2Model(workload.Trojan); err != nil {
		t.Fatal(err)
	}
	if _, _, err := det.Stage2Info(workload.Benign); err == nil {
		t.Fatal("stage-2 info for benign accepted")
	}
	if det.Stage1Model() == nil {
		t.Fatal("no stage-1 model")
	}
}

func TestTrainBoosted(t *testing.T) {
	d := testData(t)
	det, err := Train(d, TrainConfig{
		Boost:       true,
		BoostRounds: 5,
		Stage2Kinds: map[workload.Class]Kind{
			workload.Virus: J48, workload.Trojan: J48,
			workload.Backdoor: J48, workload.Rootkit: J48,
		},
		Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := det.Detect(d.Instances[0].Features)
	if err != nil {
		t.Fatal(err)
	}
	if v.Confidence < 0 || v.Confidence > 1 {
		t.Fatalf("confidence=%v", v.Confidence)
	}
}

func TestMalwareScoreRange(t *testing.T) {
	d := testData(t)
	det, err := Train(d, TrainConfig{Seed: 5, Stage2Kinds: map[workload.Class]Kind{
		workload.Virus: OneR, workload.Trojan: OneR,
		workload.Backdoor: OneR, workload.Rootkit: OneR,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range d.Instances[:50] {
		s, err := det.MalwareScore(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	d := testData(t)
	empty := dataset.New(d.FeatureNames, d.ClassNames)
	if _, err := Train(empty, TrainConfig{}); err == nil {
		t.Fatal("empty training set accepted")
	}
	binary, _ := BinaryTask(d, workload.Virus)
	if _, err := Train(binary, TrainConfig{}); err == nil {
		t.Fatal("binary dataset accepted as 5-class input")
	}
	if _, err := Train(d, TrainConfig{Stage1Features: []string{"nonsense"}}); err == nil {
		t.Fatal("unknown stage-1 feature accepted")
	}
}

func TestDetectValidatesWidth(t *testing.T) {
	d := testData(t)
	det, err := Train(d, TrainConfig{Seed: 6, Stage2Kinds: map[workload.Class]Kind{
		workload.Virus: OneR, workload.Trojan: OneR,
		workload.Backdoor: OneR, workload.Rootkit: OneR,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect([]float64{1, 2}); err == nil {
		t.Fatal("short vector accepted")
	}
	if _, err := det.MalwareScore([]float64{1}); err == nil {
		t.Fatal("short vector accepted by MalwareScore")
	}
	if _, err := det.Stage1Predict([]float64{1}); err == nil {
		t.Fatal("short vector accepted by Stage1Predict")
	}
	if got := len(det.FeatureNames()); got != d.NumFeatures() {
		t.Fatalf("FeatureNames=%d", got)
	}
}

// Trained detectors are immutable and must support concurrent Detect calls
// (the run-time monitor scores many applications in parallel).
func TestDetectConcurrent(t *testing.T) {
	d := testData(t)
	det, err := Train(d, TrainConfig{Seed: 31, Stage2Kinds: map[workload.Class]Kind{
		workload.Virus: MLP, workload.Trojan: J48,
		workload.Backdoor: JRip, workload.Rootkit: OneR,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, 64)
	for i := range want {
		v, err := det.Detect(d.Instances[i].Features)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v.Malware
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				v, err := det.Detect(d.Instances[i].Features)
				if err != nil {
					t.Error(err)
					return
				}
				if v.Malware != want[i] {
					t.Errorf("concurrent verdict differs at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Concurrent stage-2 training must be deterministic: two Train runs with
// the same seed serialize to identical bytes.
func TestTrainDeterministicUnderConcurrency(t *testing.T) {
	d := testData(t)
	a, err := Train(d, TrainConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(d, TrainConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("same-seed detectors serialize differently; stage-2 parallelism broke determinism")
	}
}

func TestTrainContextCancellation(t *testing.T) {
	d := testData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainContext(ctx, d, TrainConfig{Seed: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
}
