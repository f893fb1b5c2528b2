package registry

import (
	"encoding/json"
	"fmt"
	"regexp"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/drift"
)

// ManifestVersion is the manifest schema generation; DecodeManifest
// refuses any other value so an old build meeting a newer registry fails
// with a clear error instead of silently dropping fields.
const ManifestVersion = 1

// shaPattern is the only blob digest form the registry accepts:
// lowercase hex SHA-256.
var shaPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// Entry describes one published model version.
type Entry struct {
	// Version is the registry-assigned monotonic version number (>= 1).
	Version int `json:"version"`
	// SHA256 is the lowercase hex digest of the model blob; the blob
	// lives at blobs/sha256-<SHA256>.json and is re-hashed on load.
	SHA256 string `json:"sha256"`
	// Size is the blob length in bytes (a cheap first-line integrity
	// check before hashing).
	Size int64 `json:"size"`
	// ModelFormat is the persist.FormatVersion the blob was written with.
	ModelFormat int `json:"model_format"`
	// Features is the model's input feature space, in order; its length
	// is the feature width the serving tier must enforce.
	Features []string `json:"features"`
	// CreatedAt is the publish time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Note is free-form operator-supplied provenance ("retrained on
	// 2026-08 corpus", ticket links, ...).
	Note string `json:"note,omitempty"`
	// TrainMeta carries structured training metadata (seed, corpus
	// scale, boosting...), merged verbatim from the publisher.
	TrainMeta map[string]string `json:"train_meta,omitempty"`
	// Reference is the training-time feature distribution for drift
	// monitoring; optional (models published without one serve with
	// drift monitoring disabled).
	Reference *drift.Reference `json:"reference,omitempty"`
	// Envelope is the stage-0 anomaly envelope for the detection
	// cascade; optional. Pre-cascade manifests have no envelope field
	// and load unchanged: a nil Envelope means the entry serves with the
	// cascade off.
	Envelope *anomaly.Envelope `json:"envelope,omitempty"`
}

// Manifest is the registry's index document: every published version
// plus which one is active. It is written atomically (temp file +
// rename), so readers always see a complete manifest.
type Manifest struct {
	ManifestVersion int `json:"manifest_version"`
	// Active is the promoted version number, 0 when nothing is promoted.
	Active int     `json:"active"`
	Models []Entry `json:"models"`
	// Pins targets specific shards (by the shard id smartserve announces
	// with -shard-id) at a version other than Active — the canary
	// mechanism behind staged rollout. Omitted when empty, so pre-rollout
	// manifests round-trip byte-identical and old builds that ignore
	// unknown fields keep serving the active version.
	Pins map[string]int `json:"pins,omitempty"`
}

// Entry returns the entry for a version number.
func (m *Manifest) Entry(version int) (Entry, bool) {
	for _, e := range m.Models {
		if e.Version == version {
			return e, true
		}
	}
	return Entry{}, false
}

// EffectiveVersion resolves the version a shard should serve: its pin
// when one exists, the active version otherwise. A shardID the pin
// table does not mention (or the empty string) follows Active.
func (m *Manifest) EffectiveVersion(shardID string) int {
	if shardID != "" {
		if v, ok := m.Pins[shardID]; ok {
			return v
		}
	}
	return m.Active
}

// Latest returns the highest published version, or false when the
// registry is empty.
func (m *Manifest) Latest() (Entry, bool) {
	if len(m.Models) == 0 {
		return Entry{}, false
	}
	return m.Models[len(m.Models)-1], true
}

// NextVersion returns the version number Publish will assign next.
func (m *Manifest) NextVersion() int {
	if e, ok := m.Latest(); ok {
		return e.Version + 1
	}
	return 1
}

// EncodeManifest serialises a manifest to indented JSON.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := validateManifest(m); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// DecodeManifest parses and validates a manifest document. It is strict
// on purpose — the manifest gates which model blob gets loaded into the
// serving tier, so a malformed or tampered one must fail loudly here,
// never deeper in the load path. It never panics on malformed input
// (FuzzDecodeManifest pins that).
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("registry: reading manifest: %w", err)
	}
	if err := validateManifest(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func validateManifest(m *Manifest) error {
	if m.ManifestVersion != ManifestVersion {
		return fmt.Errorf("registry: unsupported manifest version %d (this build reads v%d)",
			m.ManifestVersion, ManifestVersion)
	}
	prev := 0
	for i := range m.Models {
		e := &m.Models[i]
		if e.Version <= prev {
			return fmt.Errorf("registry: manifest versions not strictly ascending at index %d (%d after %d)",
				i, e.Version, prev)
		}
		prev = e.Version
		if !shaPattern.MatchString(e.SHA256) {
			return fmt.Errorf("registry: v%d has malformed sha256 %q", e.Version, e.SHA256)
		}
		if e.Size <= 0 {
			return fmt.Errorf("registry: v%d has non-positive blob size %d", e.Version, e.Size)
		}
		if len(e.Features) == 0 {
			return fmt.Errorf("registry: v%d has no feature space", e.Version)
		}
		if e.Reference != nil {
			if err := e.Reference.Validate(); err != nil {
				return fmt.Errorf("registry: v%d drift reference: %w", e.Version, err)
			}
			if e.Reference.NumFeatures() != len(e.Features) {
				return fmt.Errorf("registry: v%d drift reference covers %d features, model has %d",
					e.Version, e.Reference.NumFeatures(), len(e.Features))
			}
		}
		if e.Envelope != nil {
			if err := e.Envelope.Validate(); err != nil {
				return fmt.Errorf("registry: v%d anomaly envelope: %w", e.Version, err)
			}
			// The envelope scores the same sample vectors the model does,
			// so its feature space must match the model's exactly —
			// names and order, not just width.
			if e.Envelope.NumFeatures() != len(e.Features) {
				return fmt.Errorf("registry: v%d anomaly envelope covers %d features, model has %d",
					e.Version, e.Envelope.NumFeatures(), len(e.Features))
			}
			for i, name := range e.Envelope.Features {
				if name != e.Features[i] {
					return fmt.Errorf("registry: v%d anomaly envelope feature %d is %q, model has %q",
						e.Version, i, name, e.Features[i])
				}
			}
		}
	}
	if m.Active != 0 {
		if _, ok := m.Entry(m.Active); !ok {
			return fmt.Errorf("registry: active version %d not in manifest", m.Active)
		}
	}
	for shard, v := range m.Pins {
		if shard == "" {
			return fmt.Errorf("registry: pin table has an empty shard id")
		}
		if _, ok := m.Entry(v); !ok {
			return fmt.Errorf("registry: shard %q pinned to version %d not in manifest", shard, v)
		}
	}
	return nil
}
