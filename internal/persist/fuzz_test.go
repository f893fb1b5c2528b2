package persist

import (
	"testing"

	"twosmart/internal/anomaly"
	"twosmart/internal/ml"
	"twosmart/internal/ml/ensemble"
	"twosmart/internal/ml/mltest"
	"twosmart/internal/ml/tree"
)

// FuzzUnmarshalClassifier pins that model blobs — which the streaming
// server loads from disk and whose format version travels in the wire
// handshake — can never panic the decoder, however malformed. A blob that
// does decode must survive re-marshalling (it is a real classifier, not a
// half-initialised one), and must score: a zero vector as wide as the
// input it reads goes through both Scores and the compiled ScoresInto.
func FuzzUnmarshalClassifier(f *testing.F) {
	d := mltest.Gaussian2Class(120, 3, 2.0, 11)
	j48, err := (&tree.J48Trainer{MaxDepth: 3}).Train(d)
	if err != nil {
		f.Fatal(err)
	}
	blob, err := MarshalClassifier(j48)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	boosted, err := (&ensemble.AdaBoostTrainer{Base: &tree.J48Trainer{MaxDepth: 2}, Rounds: 2, Seed: 1}).Train(d)
	if err != nil {
		f.Fatal(err)
	}
	bblob, err := MarshalClassifier(boosted)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bblob)
	f.Add([]byte(`{"v":1,"type":"j48","data":{}}`))
	f.Add([]byte(`{"v":0,"type":"j48","data":{}}`))
	f.Add([]byte(`{"v":1,"type":"adaboost","data":{"members":[],"alphas":[],"num_classes":0}}`))
	f.Add([]byte(`{"v":1,"type":"mlp","data":{"layers":[[[1e308]]]}}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := UnmarshalClassifier(data)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("nil classifier with nil error")
		}
		if _, err := MarshalClassifier(c); err != nil {
			t.Fatalf("decoded classifier does not re-marshal: %v", err)
		}
		w := c.InputWidth()
		if w > 4096 {
			return
		}
		x := make([]float64, w)
		c.Scores(x)
		ml.Compile(c).ScoresInto(make([]float64, c.NumClasses()), x)
	})
}

// FuzzUnmarshalEnvelope is the same never-panic pin for the stage-0
// anomaly envelope encoding: whatever the bytes, the decoder either
// errors or yields a Validate-clean envelope that re-marshals.
func FuzzUnmarshalEnvelope(f *testing.F) {
	env := &anomaly.Envelope{
		Features:  []string{"branch-instructions", "cache-references"},
		Lo:        []float64{10, 20},
		Hi:        []float64{100, 200},
		InvWidth:  []float64{1.0 / 90, 1.0 / 180},
		Threshold: 0.25,
		Budget:    0.001,
	}
	blob, err := MarshalEnvelope(env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"v":1,"type":"anomaly-envelope","data":{}}`))
	f.Add([]byte(`{"v":1,"type":"anomaly-envelope","data":{"features":["x"],"lo":[0],"hi":[1],"inv_width":[1]}}`))
	f.Add([]byte(`{"v":1,"type":"anomaly-envelope","data":{"features":["x"],"lo":[1],"hi":[0],"inv_width":[1e308]}}`))
	f.Add([]byte(`{"v":2,"type":"anomaly-envelope","data":{}}`))
	f.Add([]byte(`{"v":1,"type":"j48","data":{}}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		if e == nil {
			t.Fatal("nil envelope with nil error")
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("decoded envelope invalid: %v", err)
		}
		if _, err := MarshalEnvelope(e); err != nil {
			t.Fatalf("decoded envelope does not re-marshal: %v", err)
		}
	})
}
