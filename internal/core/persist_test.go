package core

import (
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"twosmart/internal/workload"
)

func TestDetectorRoundTrip(t *testing.T) {
	d := testData(t)
	det, err := Train(d, TrainConfig{
		Stage2Kinds: map[workload.Class]Kind{
			workload.Virus: J48, workload.Trojan: OneR,
			workload.Backdoor: JRip, workload.Rootkit: MLP,
		},
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalDetector(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, ins := range d.Instances[:100] {
		va, err := det.Detect(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := restored.Detect(ins.Features)
		if err != nil {
			t.Fatal(err)
		}
		if va != vb {
			t.Fatalf("verdicts differ across round trip: %+v vs %+v", va, vb)
		}
		sa, _ := det.MalwareScore(ins.Features)
		sb, _ := restored.MalwareScore(ins.Features)
		if sa != sb {
			t.Fatalf("scores differ across round trip: %v vs %v", sa, sb)
		}
	}
	// Stage-2 metadata survives.
	kind, feats, err := restored.Stage2Info(workload.Backdoor)
	if err != nil {
		t.Fatal(err)
	}
	if kind != JRip || len(feats) != 4 {
		t.Fatalf("stage-2 info lost: kind=%v feats=%v", kind, feats)
	}
}

func TestDetectorRoundTripBoosted(t *testing.T) {
	d := testData(t)
	det, err := Train(d, TrainConfig{
		Boost: true, BoostRounds: 4,
		Stage2Kinds: map[workload.Class]Kind{
			workload.Virus: J48, workload.Trojan: J48,
			workload.Backdoor: J48, workload.Rootkit: J48,
		},
		Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalDetector(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range d.Instances[:50] {
		va, _ := det.Detect(ins.Features)
		vb, _ := restored.Detect(ins.Features)
		if va != vb {
			t.Fatal("boosted verdicts differ across round trip")
		}
	}
}

func TestUnmarshalDetectorRejectsCorruptInput(t *testing.T) {
	if _, err := UnmarshalDetector([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalDetector([]byte(`{}`)); err == nil {
		t.Fatal("empty detector accepted")
	}

	// A valid detector with a stage-2 model removed must be rejected.
	d := testData(t)
	det, err := Train(d, TrainConfig{Seed: 23, Stage2Kinds: map[workload.Class]Kind{
		workload.Virus: OneR, workload.Trojan: OneR,
		workload.Backdoor: OneR, workload.Rootkit: OneR,
	}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var dto map[string]json.RawMessage
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}
	var stage2 map[string]json.RawMessage
	if err := json.Unmarshal(dto["stage2"], &stage2); err != nil {
		t.Fatal(err)
	}
	delete(stage2, "virus")
	dto["stage2"], _ = json.Marshal(stage2)
	corrupted, _ := json.Marshal(dto)
	if _, err := UnmarshalDetector(corrupted); err == nil {
		t.Fatal("detector missing a stage-2 model accepted")
	}

	// Out-of-range feature index.
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}
	dto["stage1_features"], _ = json.Marshal([]int{999})
	corrupted, _ = json.Marshal(dto)
	if _, err := UnmarshalDetector(corrupted); err == nil {
		t.Fatal("out-of-range feature index accepted")
	}
}

// TestUnmarshalDetectorRejectsWrongClassCount: a blob whose stage 1 is a
// binary stage-2 model, or whose stage-2 model is the 5-class stage 1,
// must not load; either would panic or mis-score on its first sample.
func TestUnmarshalDetectorRejectsWrongClassCount(t *testing.T) {
	det, err := Train(testData(t), TrainConfig{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var dto detectorDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}
	virus := dto.Stage2["virus"]

	binaryStage1 := dto
	binaryStage1.Stage1, binaryStage1.Stage1Feats = virus.Model, virus.Features
	blob, _ := json.Marshal(binaryStage1)
	if _, err := UnmarshalDetector(blob); err == nil {
		t.Error("binary stage 1 accepted")
	}

	multiStage2 := dto
	multiStage2.Stage2 = maps.Clone(dto.Stage2)
	multiStage2.Stage2["virus"] = stage2DTO{Kind: virus.Kind, Model: dto.Stage1, Features: dto.Stage1Feats}
	blob, _ = json.Marshal(multiStage2)
	if _, err := UnmarshalDetector(blob); err == nil {
		t.Error("5-class stage-2 model accepted")
	}
}

// TestUnmarshalDetectorRejectsNarrowFeatures: a blob whose stage lists
// fewer features than its model reads must not load, and the error names
// the stage; either blob would load and then panic on its first sample.
// The trained detector's own blob still loads.
func TestUnmarshalDetectorRejectsNarrowFeatures(t *testing.T) {
	det, err := Train(testData(t), TrainConfig{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalDetector(data); err != nil {
		t.Fatalf("trained detector's blob: %v", err)
	}
	var dto detectorDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}

	narrowStage1 := dto
	narrowStage1.Stage1Feats = []int{0}
	blob, _ := json.Marshal(narrowStage1)
	if _, err := UnmarshalDetector(blob); err == nil || !strings.Contains(err.Error(), "stage-1") {
		t.Errorf("stage 1 with one listed feature: err = %v, want a stage-1 error", err)
	}

	narrowStage2 := dto
	narrowStage2.Stage2 = maps.Clone(dto.Stage2)
	for name, s2 := range narrowStage2.Stage2 {
		s2.Features = []int{0}
		narrowStage2.Stage2[name] = s2
	}
	blob, _ = json.Marshal(narrowStage2)
	if _, err := UnmarshalDetector(blob); err == nil || !strings.Contains(err.Error(), "stage-2") {
		t.Errorf("stage 2 with one listed feature: err = %v, want a stage-2 error", err)
	}
}

// TestUnmarshalDetectorRejectsNegativeTreeIndex: a trained detector whose
// J48 stage-2 root tests feature -1 must not load; it would load and then
// panic on its first sample. The trained detector's own blob still loads.
func TestUnmarshalDetectorRejectsNegativeTreeIndex(t *testing.T) {
	det, err := Train(testData(t), TrainConfig{Seed: 23, Stage2Kinds: map[workload.Class]Kind{workload.Virus: J48}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalDetector(data); err != nil {
		t.Fatalf("trained detector's blob: %v", err)
	}
	var dto detectorDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		t.Fatal(err)
	}
	virus := dto.Stage2["virus"]
	var env struct {
		V    int    `json:"v"`
		Type string `json:"type"`
		Data struct {
			Nodes      []map[string]any `json:"nodes"`
			NumClasses int              `json:"num_classes"`
			FeatNames  []string         `json:"feature_names"`
		} `json:"data"`
	}
	if err := json.Unmarshal(virus.Model, &env); err != nil {
		t.Fatal(err)
	}
	if env.Type != "j48" || len(env.Data.Nodes) < 3 || env.Data.Nodes[0]["leaf"] == true {
		t.Fatalf("virus stage is a %s of %d nodes, want a J48 with an internal root", env.Type, len(env.Data.Nodes))
	}
	env.Data.Nodes[0]["feat"] = -1
	if virus.Model, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	dto.Stage2 = maps.Clone(dto.Stage2)
	dto.Stage2["virus"] = virus
	blob, _ := json.Marshal(dto)
	if _, err := UnmarshalDetector(blob); err == nil {
		t.Fatal("J48 root testing feature -1 accepted")
	}
}
