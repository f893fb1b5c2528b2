package rules

import (
	"encoding/json"
	"errors"

	"twosmart/internal/ml"
)

// --- OneR ---------------------------------------------------------------

type oneRDTO struct {
	Feature    int         `json:"feature"`
	FeatName   string      `json:"feature_name"`
	Thresholds []float64   `json:"thresholds"`
	Dists      [][]float64 `json:"dists"`
	NumClasses int         `json:"num_classes"`
}

// MarshalOneR serialises a OneR model to JSON; it reports false if c is not
// a OneR model.
func MarshalOneR(c ml.Classifier) ([]byte, bool, error) {
	m, ok := c.(*oneR)
	if !ok {
		return nil, false, nil
	}
	data, err := json.Marshal(oneRDTO{
		Feature: m.feature, FeatName: m.featName,
		Thresholds: m.thresholds, Dists: m.dists, NumClasses: m.numClasses,
	})
	return data, true, err
}

// UnmarshalOneR reconstructs a OneR model serialised by MarshalOneR.
func UnmarshalOneR(data []byte) (ml.Classifier, error) {
	var dto oneRDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	if dto.Feature < 0 {
		return nil, errors.New("rules: OneR negative feature index")
	}
	if len(dto.Dists) != len(dto.Thresholds)+1 {
		return nil, errors.New("rules: OneR bins and thresholds inconsistent")
	}
	if dto.NumClasses <= 0 {
		return nil, errors.New("rules: invalid class count")
	}
	for _, d := range dto.Dists {
		if len(d) != dto.NumClasses {
			return nil, errors.New("rules: OneR distribution width mismatch")
		}
	}
	return &oneR{
		feature: dto.Feature, featName: dto.FeatName,
		thresholds: dto.Thresholds, dists: dto.Dists, numClasses: dto.NumClasses,
	}, nil
}

// --- JRip ---------------------------------------------------------------

type conditionDTO struct {
	Feat      int     `json:"feat"`
	Threshold float64 `json:"threshold"`
	LE        bool    `json:"le"`
}

type ruleDTO struct {
	Conds   []conditionDTO `json:"conds"`
	Class   int            `json:"class"`
	Laplace float64        `json:"laplace"`
}

type jripDTO struct {
	Rules       []ruleDTO `json:"rules"`
	DefaultDist []float64 `json:"default_dist"`
	NumClasses  int       `json:"num_classes"`
	FeatNames   []string  `json:"feature_names"`
}

// MarshalJRip serialises a JRip model to JSON; it reports false if c is not
// a JRip model.
func MarshalJRip(c ml.Classifier) ([]byte, bool, error) {
	m, ok := c.(*jrip)
	if !ok {
		return nil, false, nil
	}
	dto := jripDTO{DefaultDist: m.defaultDist, NumClasses: m.numClasses, FeatNames: m.featNames}
	for _, r := range m.rules {
		rd := ruleDTO{Class: r.class, Laplace: r.laplace}
		for _, cond := range r.conds {
			rd.Conds = append(rd.Conds, conditionDTO{Feat: cond.feat, Threshold: cond.threshold, LE: cond.le})
		}
		dto.Rules = append(dto.Rules, rd)
	}
	data, err := json.Marshal(dto)
	return data, true, err
}

// UnmarshalJRip reconstructs a JRip model serialised by MarshalJRip.
func UnmarshalJRip(data []byte) (ml.Classifier, error) {
	var dto jripDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, err
	}
	if dto.NumClasses <= 0 || len(dto.DefaultDist) != dto.NumClasses {
		return nil, errors.New("rules: JRip default distribution inconsistent")
	}
	m := &jrip{defaultDist: dto.DefaultDist, numClasses: dto.NumClasses, featNames: dto.FeatNames}
	for _, rd := range dto.Rules {
		if rd.Class < 0 || rd.Class >= dto.NumClasses {
			return nil, errors.New("rules: JRip rule class out of range")
		}
		r := rule{class: rd.Class, laplace: rd.Laplace}
		for _, cd := range rd.Conds {
			if cd.Feat < 0 {
				return nil, errors.New("rules: JRip condition with a negative feature index")
			}
			r.conds = append(r.conds, condition{feat: cd.Feat, threshold: cd.Threshold, le: cd.LE})
		}
		m.rules = append(m.rules, r)
	}
	return m, nil
}
