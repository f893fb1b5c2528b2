// Package registry is the versioned on-disk model store behind the
// serving tier's train-once / promote-many lifecycle. Models are
// content-addressed — every published blob is named by its SHA-256 and
// re-hashed on load, so a bit-rotted or hand-edited artifact can never
// reach the scoring path — and indexed by a JSON manifest carrying a
// monotonic version number, the persist format version, the feature
// width, operator-supplied training metadata and (optionally) the
// training-time feature distribution for drift monitoring.
//
// Layout:
//
//	<root>/
//	  manifest.json                 # Manifest, written atomically
//	  blobs/sha256-<hex>.json       # model blobs, content-addressed
//
// Both the manifest and blobs are published with the write-temp-then-
// rename idiom, so a reader (or a crashed writer) never observes a
// half-written file. The registry assumes a single writer at a time
// (cmd/smartctl or a training pipeline); concurrent readers — the
// serving tier's watch loop — are always safe.
package registry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/drift"
	"twosmart/internal/persist"
)

// ErrIntegrity is wrapped by load errors caused by a blob whose bytes no
// longer match the digest the manifest recorded; match with errors.Is.
var ErrIntegrity = errors.New("registry: blob integrity check failed")

// ErrNoActive is returned by ActiveEntry, and by EffectiveEntry and
// LoadEffective for an unpinned shard, when no version is promoted.
var ErrNoActive = errors.New("registry: no active version")

const (
	manifestName = "manifest.json"
	blobsDir     = "blobs"
)

// Registry is a handle on one on-disk model store.
type Registry struct {
	root string
}

// Open opens (creating if needed) a registry rooted at dir.
func Open(dir string) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("registry: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, blobsDir), 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{root: dir}
	// Surface a corrupt manifest at open time, not on the first publish.
	if _, err := r.Manifest(); err != nil {
		return nil, err
	}
	return r, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

func (r *Registry) manifestPath() string { return filepath.Join(r.root, manifestName) }

// BlobPath returns where a digest's blob lives.
func (r *Registry) BlobPath(sha string) string {
	return filepath.Join(r.root, blobsDir, "sha256-"+sha+".json")
}

// Manifest reads and validates the current manifest. A registry with no
// manifest yet yields an empty one.
func (r *Registry) Manifest() (*Manifest, error) {
	data, err := os.ReadFile(r.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return &Manifest{ManifestVersion: ManifestVersion}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return DecodeManifest(data)
}

// writeManifest publishes a manifest atomically: encode, write to a temp
// file in the same directory, fsync, rename over manifest.json.
func (r *Registry) writeManifest(m *Manifest) error {
	data, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	return atomicWrite(r.manifestPath(), data)
}

// WriteFile publishes data as the file name under the registry root
// with the same write-temp-then-rename idiom as the manifest, so a
// reader never observes a half-written file. It is for sidecar state
// that lives beside the manifest (the rollout controller's documents).
func (r *Registry) WriteFile(name string, data []byte) error {
	return atomicWrite(filepath.Join(r.root, name), data)
}

func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmpName, path)
	}
	if werr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("registry: %w", werr)
	}
	return nil
}

// PublishOptions carries the optional metadata of a Publish call.
type PublishOptions struct {
	// Note is free-form provenance recorded in the manifest entry.
	Note string
	// TrainMeta is structured training metadata (seed, scale, ...).
	TrainMeta map[string]string
	// Reference is the training-time feature distribution for drift
	// monitoring; must cover exactly the model's feature space when set.
	Reference *drift.Reference
	// Envelope is the stage-0 anomaly envelope for the detection
	// cascade; must cover exactly the model's feature space (names and
	// order) when set. Entries published without one serve with the
	// cascade disabled.
	Envelope *anomaly.Envelope
	// Promote makes the new version active in the same manifest write.
	Promote bool
}

// Publish verifies that blob decodes as a detector, stores it
// content-addressed and appends a manifest entry with the next monotonic
// version; with opts.Promote the new version also becomes active
// atomically. It returns the new entry.
func (r *Registry) Publish(blob []byte, opts PublishOptions) (Entry, error) {
	det, err := core.UnmarshalDetector(blob)
	if err != nil {
		return Entry{}, fmt.Errorf("registry: blob does not decode as a detector: %w", err)
	}
	m, err := r.Manifest()
	if err != nil {
		return Entry{}, err
	}
	sum := sha256.Sum256(blob)
	sha := hex.EncodeToString(sum[:])
	e := Entry{
		Version:     m.NextVersion(),
		SHA256:      sha,
		Size:        int64(len(blob)),
		ModelFormat: persist.FormatVersion,
		Features:    det.FeatureNames(),
		CreatedAt:   time.Now().UTC().Truncate(time.Second),
		Note:        opts.Note,
		TrainMeta:   opts.TrainMeta,
	}
	if opts.Reference != nil {
		if err := opts.Reference.Validate(); err != nil {
			return Entry{}, fmt.Errorf("registry: drift reference: %w", err)
		}
		if opts.Reference.NumFeatures() != len(e.Features) {
			return Entry{}, fmt.Errorf("registry: drift reference covers %d features, model has %d",
				opts.Reference.NumFeatures(), len(e.Features))
		}
		e.Reference = opts.Reference
	}
	if opts.Envelope != nil {
		if err := opts.Envelope.Validate(); err != nil {
			return Entry{}, fmt.Errorf("registry: anomaly envelope: %w", err)
		}
		if opts.Envelope.NumFeatures() != len(e.Features) {
			return Entry{}, fmt.Errorf("registry: anomaly envelope covers %d features, model has %d",
				opts.Envelope.NumFeatures(), len(e.Features))
		}
		for i, name := range opts.Envelope.Features {
			if name != e.Features[i] {
				return Entry{}, fmt.Errorf("registry: anomaly envelope feature %d is %q, model has %q",
					i, name, e.Features[i])
			}
		}
		e.Envelope = opts.Envelope
	}
	// Blob first, manifest second: a crash between the two leaves an
	// orphaned blob (harmless, prunable), never a dangling manifest entry.
	if err := atomicWrite(r.BlobPath(sha), blob); err != nil {
		return Entry{}, err
	}
	m.Models = append(m.Models, e)
	if opts.Promote {
		m.Active = e.Version
	}
	if err := r.writeManifest(m); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// List returns every published entry, oldest first.
func (r *Registry) List() ([]Entry, error) {
	m, err := r.Manifest()
	if err != nil {
		return nil, err
	}
	return append([]Entry(nil), m.Models...), nil
}

// ActiveEntry returns the promoted entry, or ErrNoActive.
func (r *Registry) ActiveEntry() (Entry, error) {
	m, err := r.Manifest()
	if err != nil {
		return Entry{}, err
	}
	if m.Active == 0 {
		return Entry{}, ErrNoActive
	}
	e, ok := m.Entry(m.Active)
	if !ok {
		return Entry{}, fmt.Errorf("registry: active version %d missing from manifest", m.Active)
	}
	return e, nil
}

// Promote makes a published version the active one.
func (r *Registry) Promote(version int) (Entry, error) {
	m, err := r.Manifest()
	if err != nil {
		return Entry{}, err
	}
	e, ok := m.Entry(version)
	if !ok {
		return Entry{}, fmt.Errorf("registry: version %d not published", version)
	}
	m.Active = version
	return e, r.writeManifest(m)
}

// Pin targets one shard at a published version, overriding Active for
// that shard only. This is the canary primitive: the rollout controller
// pins a candidate to a single shard, bakes, then either widens
// (Promote + Unpin) or rolls back (Unpin).
func (r *Registry) Pin(shardID string, version int) (Entry, error) {
	if shardID == "" {
		return Entry{}, errors.New("registry: pin needs a shard id")
	}
	m, err := r.Manifest()
	if err != nil {
		return Entry{}, err
	}
	e, ok := m.Entry(version)
	if !ok {
		return Entry{}, fmt.Errorf("registry: version %d not published", version)
	}
	if m.Pins == nil {
		m.Pins = make(map[string]int)
	}
	m.Pins[shardID] = version
	return e, r.writeManifest(m)
}

// Unpin removes a shard's pin so it follows the active version again.
// Unpinning a shard that has no pin is a no-op.
func (r *Registry) Unpin(shardID string) error {
	m, err := r.Manifest()
	if err != nil {
		return err
	}
	if _, ok := m.Pins[shardID]; !ok {
		return nil
	}
	delete(m.Pins, shardID)
	if len(m.Pins) == 0 {
		m.Pins = nil
	}
	return r.writeManifest(m)
}

// EffectiveEntry resolves the entry a shard should serve: its pinned
// version when the pin table mentions shardID, the active version
// otherwise (ErrNoActive when neither applies).
func (r *Registry) EffectiveEntry(shardID string) (Entry, error) {
	m, err := r.Manifest()
	if err != nil {
		return Entry{}, err
	}
	v := m.EffectiveVersion(shardID)
	if v == 0 {
		return Entry{}, ErrNoActive
	}
	e, ok := m.Entry(v)
	if !ok {
		return Entry{}, fmt.Errorf("registry: effective version %d missing from manifest", v)
	}
	return e, nil
}

// Rollback demotes the active version to the newest published version
// below it and returns the newly active entry.
func (r *Registry) Rollback() (Entry, error) {
	m, err := r.Manifest()
	if err != nil {
		return Entry{}, err
	}
	if m.Active == 0 {
		return Entry{}, ErrNoActive
	}
	var prev *Entry
	for i := range m.Models {
		e := &m.Models[i]
		if e.Version < m.Active && (prev == nil || e.Version > prev.Version) {
			prev = e
		}
	}
	if prev == nil {
		return Entry{}, fmt.Errorf("registry: no version below active v%d to roll back to", m.Active)
	}
	m.Active = prev.Version
	return *prev, r.writeManifest(m)
}

// Load reads a published version's blob, re-verifies its SHA-256 against
// the manifest (ErrIntegrity on mismatch) and decodes the detector.
func (r *Registry) Load(version int) (*core.Detector, Entry, error) {
	m, err := r.Manifest()
	if err != nil {
		return nil, Entry{}, err
	}
	e, ok := m.Entry(version)
	if !ok {
		return nil, Entry{}, fmt.Errorf("registry: version %d not published", version)
	}
	det, err := r.loadEntry(e)
	return det, e, err
}

// LoadEffective loads the version a shard should serve — its pin when
// one exists, the active version otherwise. With an empty shardID it
// loads the active version.
func (r *Registry) LoadEffective(shardID string) (*core.Detector, Entry, error) {
	e, err := r.EffectiveEntry(shardID)
	if err != nil {
		return nil, Entry{}, err
	}
	det, err := r.loadEntry(e)
	return det, e, err
}

func (r *Registry) loadEntry(e Entry) (*core.Detector, error) {
	blob, err := os.ReadFile(r.BlobPath(e.SHA256))
	if err != nil {
		return nil, fmt.Errorf("registry: v%d blob: %w", e.Version, err)
	}
	if int64(len(blob)) != e.Size {
		return nil, fmt.Errorf("%w: v%d blob is %d bytes, manifest says %d",
			ErrIntegrity, e.Version, len(blob), e.Size)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != e.SHA256 {
		return nil, fmt.Errorf("%w: v%d blob hashes to %s, manifest says %s",
			ErrIntegrity, e.Version, got, e.SHA256)
	}
	det, err := core.UnmarshalDetector(blob)
	if err != nil {
		return nil, fmt.Errorf("registry: v%d: %w", e.Version, err)
	}
	return det, nil
}

// Prune removes all but the newest keep versions from the manifest and
// deletes blobs no surviving entry references. The active version and
// every version a shard pin references are always kept, even when older
// than the cut — pruning a pinned canary out from under a baking shard
// would turn its next watch poll into a load error. It returns the
// removed entries.
func (r *Registry) Prune(keep int) ([]Entry, error) {
	if keep < 1 {
		return nil, fmt.Errorf("registry: prune must keep at least 1 version, got %d", keep)
	}
	m, err := r.Manifest()
	if err != nil {
		return nil, err
	}
	if len(m.Models) <= keep {
		return nil, nil
	}
	pinned := make(map[int]bool, len(m.Pins))
	for _, v := range m.Pins {
		pinned[v] = true
	}
	cut := len(m.Models) - keep
	var removed []Entry
	kept := make([]Entry, 0, keep+1)
	for i, e := range m.Models {
		if i < cut && e.Version != m.Active && !pinned[e.Version] {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	m.Models = kept
	if err := r.writeManifest(m); err != nil {
		return nil, err
	}
	// Delete blobs only after the manifest no longer references them, and
	// only when no surviving entry shares the digest.
	live := make(map[string]bool, len(kept))
	for _, e := range kept {
		live[e.SHA256] = true
	}
	for _, e := range removed {
		if !live[e.SHA256] {
			os.Remove(r.BlobPath(e.SHA256))
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].Version < removed[j].Version })
	return removed, nil
}

// WatchEffective polls the manifest every interval and invokes onChange
// each time the shard's effective version (pin when present, active
// otherwise; an empty shardID tracks the active version) differs from
// the last one observed — including the first observation when from
// differs. A pin-table-only manifest write — no version published, no
// promotion — therefore still fires onChange on the shard it targets.
// It blocks until ctx is cancelled; manifest read errors are reported
// through onError (nil to ignore) and polling continues — a torn NFS
// read must not kill the serving tier's swap loop.
func (r *Registry) WatchEffective(ctx context.Context, interval time.Duration, shardID string, from int, onChange func(Entry), onError func(error)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	last := from
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		m, err := r.Manifest()
		if err != nil {
			if onError != nil {
				onError(err)
			}
			continue
		}
		v := m.EffectiveVersion(shardID)
		if v == 0 || v == last {
			continue
		}
		e, ok := m.Entry(v)
		if !ok {
			continue
		}
		last = v
		onChange(e)
	}
}
