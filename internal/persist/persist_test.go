package persist

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"twosmart/internal/anomaly"
	"twosmart/internal/ml"
	"twosmart/internal/ml/bayes"
	"twosmart/internal/ml/ensemble"
	"twosmart/internal/ml/linear"
	"twosmart/internal/ml/mltest"
	"twosmart/internal/ml/nn"
	"twosmart/internal/ml/rules"
	"twosmart/internal/ml/tree"
)

func trainers() map[string]ml.Trainer {
	return map[string]ml.Trainer{
		"J48":      &tree.J48Trainer{},
		"JRip":     &rules.JRipTrainer{Seed: 1},
		"OneR":     &rules.OneRTrainer{},
		"MLP":      &nn.MLPTrainer{Epochs: 15, Seed: 1},
		"MLR":      &linear.MLRTrainer{Epochs: 15, Seed: 1},
		"AdaBoost": &ensemble.AdaBoostTrainer{Base: &tree.J48Trainer{MaxDepth: 3}, Rounds: 5, Seed: 1},
	}
}

// assertSameModel checks that two classifiers produce identical scores on a
// probe set.
func assertSameModel(t *testing.T, name string, a, b ml.Classifier, probes [][]float64) {
	t.Helper()
	if a.NumClasses() != b.NumClasses() {
		t.Fatalf("%s: class count changed across round trip", name)
	}
	for i, fv := range probes {
		sa, sb := a.Scores(fv), b.Scores(fv)
		for c := range sa {
			if math.Abs(sa[c]-sb[c]) > 1e-12 {
				t.Fatalf("%s: probe %d class %d: %v vs %v", name, i, c, sa[c], sb[c])
			}
		}
	}
}

func TestRoundTripAllFamilies(t *testing.T) {
	d := mltest.Gaussian2Class(400, 4, 2.0, 3)
	probes := make([][]float64, 0, 50)
	for _, ins := range d.Instances[:50] {
		probes = append(probes, ins.Features)
	}
	for name, tr := range trainers() {
		model, err := tr.Train(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := MarshalClassifier(model)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		restored, err := UnmarshalClassifier(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		assertSameModel(t, name, model, restored, probes)
	}
}

func TestRoundTripMulticlass(t *testing.T) {
	d := mltest.MultiClass(300, 3, 3, 2.5, 4)
	for name, tr := range trainers() {
		model, err := tr.Train(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := MarshalClassifier(model)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		restored, err := UnmarshalClassifier(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ins := range d.Instances[:30] {
			if model.Predict(ins.Features) != restored.Predict(ins.Features) {
				t.Fatalf("%s: prediction changed across round trip", name)
			}
		}
	}
}

// TestFormatVersionBothDirections pins that version skew in either
// direction — an old pre-versioning blob (v0) and a blob from a newer
// build (v2) — fails with the typed ErrFormatVersion naming both versions,
// not with a shape-dependent decode error.
func TestFormatVersionBothDirections(t *testing.T) {
	d := mltest.Gaussian2Class(100, 2, 2.0, 7)
	model, err := (&tree.J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifier(model)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatal(err)
	}
	if string(env["v"]) != "1" {
		t.Fatalf("marshalled envelope carries v=%s, want 1", env["v"])
	}

	reversion := func(v string) []byte {
		mod := map[string]json.RawMessage{}
		for k, raw := range env {
			mod[k] = raw
		}
		if v == "" {
			delete(mod, "v") // the pre-versioning format
		} else {
			mod["v"] = json.RawMessage(v)
		}
		out, err := json.Marshal(mod)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, tc := range []struct {
		name, v, wantSub string
	}{
		{"too old (field absent)", "", "v0"},
		{"too new", "2", "v2"},
	} {
		_, err := UnmarshalClassifier(reversion(tc.v))
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, ErrFormatVersion) {
			t.Fatalf("%s: err %v does not match ErrFormatVersion", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) || !strings.Contains(err.Error(), "v1") {
			t.Fatalf("%s: error %q does not name both the blob version (%s) and the supported v1", tc.name, err, tc.wantSub)
		}
	}

	// The supported version still round-trips.
	if _, err := UnmarshalClassifier(reversion("1")); err != nil {
		t.Fatalf("v1 blob rejected: %v", err)
	}

	// An ensemble member with a skewed version is caught too: versioning
	// applies to every nested envelope.
	boosted, err := (&ensemble.AdaBoostTrainer{Base: &tree.J48Trainer{MaxDepth: 3}, Rounds: 3, Seed: 1}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	bblob, err := MarshalClassifier(boosted)
	if err != nil {
		t.Fatal(err)
	}
	// The outer adaboost envelope keeps v1; only the first nested j48
	// member's envelope is skewed.
	skewed := []byte(strings.Replace(string(bblob), `{"v":1,"type":"j48"`, `{"v":9,"type":"j48"`, 1))
	if string(skewed) == string(bblob) {
		t.Fatal("test setup: nested member envelope not found in ensemble blob")
	}
	if _, err := UnmarshalClassifier(skewed); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("version-skewed nested member: err=%v, want ErrFormatVersion", err)
	}
}

// TestMissingFormatVersionMessage pins the wording of the v0 special
// case: a blob with no (or an explicit zero) "v" field is the
// pre-versioning format, and the error must name the missing field, the
// version this build expects, and suggest re-training — not read like a
// generic skew between two real versions.
func TestMissingFormatVersionMessage(t *testing.T) {
	d := mltest.Gaussian2Class(100, 2, 2.0, 7)
	model, err := (&tree.J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := MarshalClassifier(model)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(blob, &env); err != nil {
		t.Fatal(err)
	}
	mutate := func(v string) []byte {
		mod := map[string]json.RawMessage{}
		for k, raw := range env {
			mod[k] = raw
		}
		if v == "" {
			delete(mod, "v")
		} else {
			mod["v"] = json.RawMessage(v)
		}
		out, err := json.Marshal(mod)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	for _, tc := range []struct {
		name     string
		v        string
		wantSubs []string
	}{
		{"field absent", "", []string{`"v" field is missing or zero`, "v1", "re-train"}},
		{"explicit zero", "0", []string{`"v" field is missing or zero`, "v1", "re-train"}},
		// A real (non-zero) skew must NOT claim the field is missing.
		{"newer build", "3", []string{"v3", "v1", "retrain or re-export"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalClassifier(mutate(tc.v))
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("err %v does not match ErrFormatVersion", err)
			}
			for _, sub := range tc.wantSubs {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q missing %q", err, sub)
				}
			}
			if tc.v == "3" && strings.Contains(err.Error(), "missing") {
				t.Fatalf("real version skew misreported as a missing field: %q", err)
			}
		})
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalClassifier([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalClassifier([]byte(`{"v":1,"type":"svm","data":{}}`)); err == nil {
		t.Fatal("unknown type accepted")
	}
	// Valid envelope, corrupt payloads.
	for _, typ := range []string{"j48", "jrip", "oner", "mlp", "mlr", "adaboost"} {
		env, _ := json.Marshal(map[string]any{"v": FormatVersion, "type": typ, "data": map[string]any{}})
		if _, err := UnmarshalClassifier(env); err == nil {
			t.Fatalf("empty %s payload accepted", typ)
		}
	}
}

func TestUnmarshalRejectsCorruptTree(t *testing.T) {
	// A tree whose internal node points at itself must be rejected.
	payload := `{"v":1,"type":"j48","data":{"nodes":[{"feat":0,"threshold":1,"left":0,"right":0,"counts":[1,2],"leaf":false}],"num_classes":2}}`
	if _, err := UnmarshalClassifier([]byte(payload)); err == nil {
		t.Fatal("self-referential tree accepted")
	}
}

func TestUnmarshalRejectsInconsistentEnsemble(t *testing.T) {
	d := mltest.Gaussian2Class(100, 2, 2.0, 5)
	model, err := (&tree.J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	member, err := MarshalClassifier(model)
	if err != nil {
		t.Fatal(err)
	}
	// Alphas length mismatch.
	env, _ := json.Marshal(map[string]any{
		"v":    FormatVersion,
		"type": "adaboost",
		"data": map[string]any{
			"members":     []json.RawMessage{member},
			"alphas":      []float64{0.5, 0.5},
			"num_classes": 2,
		},
	})
	if _, err := UnmarshalClassifier(env); err == nil {
		t.Fatal("mismatched ensemble accepted")
	}
}

func TestMarshalUnsupported(t *testing.T) {
	if _, err := MarshalClassifier(fake{}); err == nil {
		t.Fatal("unsupported classifier accepted")
	}
}

type fake struct{}

func (fake) NumClasses() int            { return 2 }
func (fake) InputWidth() int            { return 0 }
func (fake) Scores([]float64) []float64 { return []float64{1, 0} }
func (fake) Predict([]float64) int      { return 0 }

func TestRoundTripNaiveBayes(t *testing.T) {
	d := mltest.Gaussian2Class(300, 4, 2.0, 9)
	model, err := (&bayes.NBTrainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalClassifier(model)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalClassifier(data)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 0, 30)
	for _, ins := range d.Instances[:30] {
		probes = append(probes, ins.Features)
	}
	assertSameModel(t, "NaiveBayes", model, restored, probes)
	// Corrupt payload rejected.
	env, _ := json.Marshal(map[string]any{"v": FormatVersion, "type": "naivebayes", "data": map[string]any{"num_classes": 2}})
	if _, err := UnmarshalClassifier(env); err == nil {
		t.Fatal("corrupt NB payload accepted")
	}
}

func TestRoundTripEnvelope(t *testing.T) {
	e := &anomaly.Envelope{
		Features:  []string{"branch-instructions", "cache-references", "branch-misses", "node-stores"},
		Lo:        []float64{10, 20, 30, 40},
		Hi:        []float64{100, 200, 300, 400},
		InvWidth:  []float64{1.0 / 90, 1.0 / 180, 1.0 / 270, 1.0 / 360},
		Threshold: 0.125,
		Budget:    0.001,
	}
	blob, err := MarshalEnvelope(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalEnvelope(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != e.Threshold || got.Budget != e.Budget {
		t.Fatalf("threshold/budget changed across round trip: %+v", got)
	}
	for i := range e.Features {
		if got.Features[i] != e.Features[i] || got.Lo[i] != e.Lo[i] ||
			got.Hi[i] != e.Hi[i] || got.InvWidth[i] != e.InvWidth[i] {
			t.Fatalf("feature %d changed across round trip", i)
		}
	}
}

func TestEnvelopeRejections(t *testing.T) {
	valid := &anomaly.Envelope{
		Features: []string{"x"}, Lo: []float64{0}, Hi: []float64{1}, InvWidth: []float64{1},
	}
	blob, err := MarshalEnvelope(valid)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong format version is ErrFormatVersion, matchable with errors.Is.
	bad := []byte(strings.Replace(string(blob), `"v":1`, `"v":9`, 1))
	if _, err := UnmarshalEnvelope(bad); !errors.Is(err, ErrFormatVersion) {
		t.Fatalf("v9 envelope error = %v, want ErrFormatVersion", err)
	}
	// A classifier blob is not an envelope.
	d := mltest.Gaussian2Class(100, 2, 2.0, 7)
	model, err := (&tree.J48Trainer{}).Train(d)
	if err != nil {
		t.Fatal(err)
	}
	cblob, err := MarshalClassifier(model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalEnvelope(cblob); err == nil {
		t.Fatal("classifier blob decoded as envelope")
	}
	// An invalid envelope never reaches disk...
	invalid := &anomaly.Envelope{Features: []string{"x"}, Lo: []float64{2}, Hi: []float64{1}, InvWidth: []float64{1}}
	if _, err := MarshalEnvelope(invalid); err == nil {
		t.Fatal("invalid envelope marshalled")
	}
	// ...and never comes back from it.
	forged := []byte(`{"v":1,"type":"anomaly-envelope","data":{"features":["x"],"lo":[2],"hi":[1],"inv_width":[1]}}`)
	if _, err := UnmarshalEnvelope(forged); err == nil {
		t.Fatal("invalid envelope decoded")
	}
}
