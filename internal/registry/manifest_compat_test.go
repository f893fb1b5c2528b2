package registry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
)

// testEnvelope builds a valid envelope over the Common-4 feature space.
func testEnvelope() *anomaly.Envelope {
	n := len(core.CommonFeatures)
	e := &anomaly.Envelope{
		Features:  append([]string(nil), core.CommonFeatures...),
		Lo:        make([]float64, n),
		Hi:        make([]float64, n),
		InvWidth:  make([]float64, n),
		Threshold: 0.2,
		Budget:    0.001,
	}
	for i := range e.Lo {
		e.Lo[i] = float64(10 * (i + 1))
		e.Hi[i] = float64(100 * (i + 1))
		e.InvWidth[i] = 1 / (e.Hi[i] - e.Lo[i])
	}
	return e
}

// TestManifestEnvelopeCompat is the forward/backward compat table test:
// a manifest carrying the new envelope section must load on the old
// struct shape (unknown-field tolerance), and a pre-cascade manifest must
// load cleanly post-change with a typed "no envelope" note — never a
// nil-deref.
func TestManifestEnvelopeCompat(t *testing.T) {
	sha := strings.Repeat("ab", 32)
	withEnvelope := &Manifest{
		ManifestVersion: ManifestVersion,
		Active:          1,
		Models: []Entry{{
			Version:     1,
			SHA256:      sha,
			Size:        10,
			ModelFormat: 1,
			Features:    append([]string(nil), core.CommonFeatures...),
			CreatedAt:   time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
			Envelope:    testEnvelope(),
		}},
	}
	newBytes, err := EncodeManifest(withEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-cascade manifest shape: exactly today's document minus the
	// envelope field, as an older build would have written it.
	preCascade := []byte(`{
	  "manifest_version": 1,
	  "active": 1,
	  "models": [{
	    "version": 1,
	    "sha256": "` + sha + `",
	    "size": 10,
	    "model_format": 1,
	    "features": ["branch-instructions", "cache-references", "branch-misses", "node-stores"],
	    "created_at": "2026-08-01T00:00:00Z"
	  }]
	}`)

	t.Run("new manifest loads on old struct shape", func(t *testing.T) {
		// oldEntry mirrors the Entry struct as it existed before the
		// cascade: no Envelope field. encoding/json drops unknown fields,
		// so an old build reading a new manifest must decode cleanly and
		// keep everything it understands.
		type oldEntry struct {
			Version  int      `json:"version"`
			SHA256   string   `json:"sha256"`
			Size     int64    `json:"size"`
			Features []string `json:"features"`
		}
		type oldManifest struct {
			ManifestVersion int        `json:"manifest_version"`
			Active          int        `json:"active"`
			Models          []oldEntry `json:"models"`
		}
		var old oldManifest
		if err := json.Unmarshal(newBytes, &old); err != nil {
			t.Fatalf("old shape rejects new manifest: %v", err)
		}
		if len(old.Models) != 1 || old.Models[0].Version != 1 || old.Models[0].SHA256 != sha {
			t.Fatalf("old shape lost fields: %+v", old)
		}
	})

	t.Run("pre-cascade manifest loads post-change", func(t *testing.T) {
		m, err := DecodeManifest(preCascade)
		if err != nil {
			t.Fatalf("pre-cascade manifest rejected: %v", err)
		}
		e, ok := m.Entry(1)
		if !ok {
			t.Fatal("entry missing")
		}
		if e.Envelope != nil {
			t.Fatalf("pre-cascade entry grew an envelope: %+v", e.Envelope)
		}
	})

	t.Run("new manifest round-trips with envelope", func(t *testing.T) {
		m, err := DecodeManifest(newBytes)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := m.Entry(1)
		env := e.Envelope
		if env == nil {
			t.Fatal("envelope lost across round trip")
		}
		if env.Threshold != 0.2 || env.NumFeatures() != len(core.CommonFeatures) {
			t.Fatalf("envelope changed across round trip: %+v", env)
		}
	})
}

func TestManifestRejectsBadEnvelope(t *testing.T) {
	sha := strings.Repeat("cd", 32)
	base := func() *Manifest {
		return &Manifest{
			ManifestVersion: ManifestVersion,
			Models: []Entry{{
				Version:     1,
				SHA256:      sha,
				Size:        10,
				ModelFormat: 1,
				Features:    append([]string(nil), core.CommonFeatures...),
				CreatedAt:   time.Now().UTC(),
				Envelope:    testEnvelope(),
			}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"invalid envelope", func(m *Manifest) { m.Models[0].Envelope.InvWidth[0] = -1 }},
		{"width mismatch", func(m *Manifest) {
			m.Models[0].Envelope.Features = m.Models[0].Envelope.Features[:2]
			m.Models[0].Envelope.Lo = m.Models[0].Envelope.Lo[:2]
			m.Models[0].Envelope.Hi = m.Models[0].Envelope.Hi[:2]
			m.Models[0].Envelope.InvWidth = m.Models[0].Envelope.InvWidth[:2]
		}},
		{"name mismatch", func(m *Manifest) { m.Models[0].Envelope.Features[0] = "not-a-model-feature" }},
	}
	if _, err := EncodeManifest(base()); err != nil {
		t.Fatalf("base manifest invalid: %v", err)
	}
	for _, tc := range cases {
		m := base()
		tc.mut(m)
		if _, err := EncodeManifest(m); err == nil {
			t.Errorf("%s: EncodeManifest succeeded, want error", tc.name)
		}
	}
}

// TestPublishWithEnvelope pins the publish→load path: an envelope rides
// the manifest entry and comes back intact; a mismatched one is refused.
func TestPublishWithEnvelope(t *testing.T) {
	blob1, _, _ := fixtures(t)
	r := open(t)
	env := testEnvelope()
	e, err := r.Publish(blob1, PublishOptions{Envelope: env, Promote: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.Entry(e.Version)
	if !ok {
		t.Fatal("published entry missing")
	}
	loaded := got.Envelope
	if loaded == nil {
		t.Fatal("published envelope missing from the manifest entry")
	}
	if loaded.Threshold != env.Threshold {
		t.Fatalf("threshold %v, want %v", loaded.Threshold, env.Threshold)
	}

	bad := testEnvelope()
	bad.Features[0] = "wrong-name"
	if _, err := r.Publish(blob1, PublishOptions{Envelope: bad}); err == nil {
		t.Fatal("publish accepted mismatched envelope")
	}
}
