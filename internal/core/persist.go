package core

import (
	"encoding/json"
	"fmt"

	"twosmart/internal/ml"
	"twosmart/internal/persist"
	"twosmart/internal/workload"
)

type stage2DTO struct {
	Kind     string          `json:"kind"`
	Model    json.RawMessage `json:"model"`
	Features []int           `json:"features"`
}

type detectorDTO struct {
	FeatureNames []string             `json:"feature_names"`
	Stage1       json.RawMessage      `json:"stage1"`
	Stage1Feats  []int                `json:"stage1_features"`
	Stage2       map[string]stage2DTO `json:"stage2"`
}

// Marshal serialises the trained detector (both stages, all per-class
// models and the feature wiring) to JSON. The result round-trips through
// UnmarshalDetector.
func (det *Detector) Marshal() ([]byte, error) {
	s1, err := persist.MarshalClassifier(det.stage1)
	if err != nil {
		return nil, fmt.Errorf("core: serialising stage 1: %w", err)
	}
	dto := detectorDTO{
		FeatureNames: det.featureNames,
		Stage1:       s1,
		Stage1Feats:  det.stage1Feats,
		Stage2:       make(map[string]stage2DTO, len(det.stage2)),
	}
	for class, s2 := range det.stage2 {
		raw, err := persist.MarshalClassifier(s2.model)
		if err != nil {
			return nil, fmt.Errorf("core: serialising stage 2 for %v: %w", class, err)
		}
		dto.Stage2[class.String()] = stage2DTO{
			Kind:     s2.kind.String(),
			Model:    raw,
			Features: s2.features,
		}
	}
	return json.Marshal(dto)
}

// UnmarshalDetector reconstructs a detector serialised by Marshal. It
// rejects a blob whose models could not score: feature indices outside
// the feature space, a stage 1 without one class per workload class, or a
// stage-2 model that is not binary.
func UnmarshalDetector(data []byte) (*Detector, error) {
	var dto detectorDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("core: reading detector: %w", err)
	}
	if len(dto.FeatureNames) == 0 {
		return nil, fmt.Errorf("core: detector has no feature space")
	}
	stage1, err := persist.UnmarshalClassifier(dto.Stage1)
	if err != nil {
		return nil, fmt.Errorf("core: restoring stage 1: %w", err)
	}
	if n := stage1.NumClasses(); n != workload.NumClasses {
		return nil, fmt.Errorf("core: stage 1 has %d classes, want %d", n, workload.NumClasses)
	}
	if err := checkFeatures(dto.Stage1Feats, len(dto.FeatureNames), stage1); err != nil {
		return nil, fmt.Errorf("core: stage-1 features: %w", err)
	}
	det := &Detector{
		featureNames: dto.FeatureNames,
		stage1:       stage1,
		stage1Feats:  dto.Stage1Feats,
		stage2:       make(map[workload.Class]stage2Model, len(dto.Stage2)),
	}
	for name, s2 := range dto.Stage2 {
		class, ok := workload.ClassByName(name)
		if !ok || !class.IsMalware() {
			return nil, fmt.Errorf("core: invalid stage-2 class %q", name)
		}
		kind, ok := KindByName(s2.Kind)
		if !ok {
			return nil, fmt.Errorf("core: invalid stage-2 kind %q", s2.Kind)
		}
		model, err := persist.UnmarshalClassifier(s2.Model)
		if err != nil {
			return nil, fmt.Errorf("core: restoring stage 2 for %s: %w", name, err)
		}
		if n := model.NumClasses(); n != 2 {
			return nil, fmt.Errorf("core: stage 2 for %s has %d classes, want 2", name, n)
		}
		if err := checkFeatures(s2.Features, len(dto.FeatureNames), model); err != nil {
			return nil, fmt.Errorf("core: stage-2 features for %s: %w", name, err)
		}
		det.stage2[class] = stage2Model{kind: kind, model: model, features: s2.Features}
	}
	for _, class := range workload.MalwareClasses() {
		if _, ok := det.stage2[class]; !ok {
			return nil, fmt.Errorf("core: detector missing stage-2 model for %v", class)
		}
	}
	return det, nil
}

// checkFeatures requires a stage's feature list to index the detector's
// feature space of width space, and to be at least as wide as the input
// its model reads.
func checkFeatures(idx []int, space int, model ml.Classifier) error {
	if len(idx) == 0 {
		return fmt.Errorf("no feature indices")
	}
	for _, j := range idx {
		if j < 0 || j >= space {
			return fmt.Errorf("index %d outside feature space of %d", j, space)
		}
	}
	if w := model.InputWidth(); len(idx) < w {
		return fmt.Errorf("%d features listed, the model reads %d", len(idx), w)
	}
	return nil
}
