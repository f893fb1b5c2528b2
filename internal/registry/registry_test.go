package registry

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/drift"
)

var (
	fixOnce sync.Once
	fixErr  error
	fixData *dataset.Dataset
	blobs   [2][]byte // two distinct tiny trained detectors
)

// fixtures trains two tiny Common-4 detectors (different seeds, so
// different bytes) shared by the whole package.
func fixtures(t *testing.T) ([]byte, []byte, *dataset.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		data, err := corpus.Collect(corpus.Config{
			Scale:       0.001,
			MinPerClass: 24,
			Budget:      30000,
			Seed:        7,
			Omniscient:  true,
		})
		if err != nil {
			fixErr = err
			return
		}
		fixData, err = data.SelectByName(core.CommonFeatures)
		if err != nil {
			fixErr = err
			return
		}
		for i, seed := range []int64{5, 17} {
			det, err := core.Train(fixData, core.TrainConfig{Seed: seed})
			if err != nil {
				fixErr = err
				return
			}
			blobs[i], fixErr = det.Marshal()
			if fixErr != nil {
				return
			}
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return blobs[0], blobs[1], fixData
}

func open(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPublishLoadRoundTrip pins the core lifecycle: publish two versions,
// list them, promote, load with integrity verification, roll back.
func TestPublishLoadRoundTrip(t *testing.T) {
	blob1, blob2, data := fixtures(t)
	r := open(t)

	ref, err := drift.BuildReference(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := r.Publish(blob1, PublishOptions{
		Note:      "first",
		TrainMeta: map[string]string{"seed": "5"},
		Reference: ref,
		Promote:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || len(e1.SHA256) != 64 || e1.Size != int64(len(blob1)) {
		t.Fatalf("entry %+v", e1)
	}
	if len(e1.Features) != len(core.CommonFeatures) {
		t.Fatalf("entry features %v", e1.Features)
	}
	e2, err := r.Publish(blob2, PublishOptions{Note: "second"})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != 2 {
		t.Fatalf("second publish got version %d", e2.Version)
	}
	if e2.SHA256 == e1.SHA256 {
		t.Fatal("different blobs share a digest")
	}

	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Version != 1 || list[1].Version != 2 {
		t.Fatalf("list %+v", list)
	}

	// v1 was promoted at publish; the active load carries its reference.
	det, act, err := r.LoadEffective("")
	if err != nil {
		t.Fatal(err)
	}
	if act.Version != 1 || det == nil {
		t.Fatalf("active %+v", act)
	}
	if act.Reference == nil || act.Reference.NumFeatures() != len(act.Features) {
		t.Fatal("active entry lost its drift reference")
	}
	if act.TrainMeta["seed"] != "5" {
		t.Fatalf("train meta %v", act.TrainMeta)
	}

	if _, err := r.Promote(2); err != nil {
		t.Fatal(err)
	}
	_, act, err = r.LoadEffective("")
	if err != nil {
		t.Fatal(err)
	}
	if act.Version != 2 {
		t.Fatalf("after promote, active is v%d", act.Version)
	}

	back, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Fatalf("rollback landed on v%d", back.Version)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback below v1 succeeded")
	}

	// Both versions load and differ behaviourally on at least one sample
	// (different training seeds), proving the right blob backs each.
	d1, _, err := r.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := r.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for _, ins := range data.Instances {
		s1, err1 := d1.MalwareScore(ins.Features)
		s2, err2 := d2.MalwareScore(ins.Features)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if s1 != s2 {
			differ = true
			break
		}
	}
	if !differ {
		t.Fatal("v1 and v2 score identically; fixtures are not distinct")
	}
}

// TestIntegrityVerification pins that a tampered blob fails Load with
// ErrIntegrity.
func TestIntegrityVerification(t *testing.T) {
	blob1, _, _ := fixtures(t)
	r := open(t)
	e, err := r.Publish(blob1, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := r.BlobPath(e.SHA256)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // flip one bit mid-blob, size unchanged
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load(e.Version); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered blob load: %v, want ErrIntegrity", err)
	}
	// Truncation is caught by the cheap size check first.
	if err := os.WriteFile(path, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load(e.Version); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("truncated blob load: %v, want ErrIntegrity", err)
	}
}

// TestPublishRejectsGarbage pins that a non-detector blob never enters
// the store.
func TestPublishRejectsGarbage(t *testing.T) {
	r := open(t)
	if _, err := r.Publish([]byte(`{"not":"a detector"}`), PublishOptions{}); err == nil {
		t.Fatal("garbage blob published")
	}
	list, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("registry not empty after rejected publish: %+v", list)
	}
}

// TestPruneKeepsActive pins that prune never drops the active version
// and deletes only unreferenced blobs.
func TestPruneKeepsActive(t *testing.T) {
	blob1, blob2, _ := fixtures(t)
	r := open(t)
	if _, err := r.Publish(blob1, PublishOptions{Promote: true}); err != nil { // v1 active
		t.Fatal(err)
	}
	if _, err := r.Publish(blob2, PublishOptions{}); err != nil { // v2
		t.Fatal(err)
	}
	if _, err := r.Publish(blob1, PublishOptions{}); err != nil { // v3, same bytes as v1
		t.Fatal(err)
	}
	removed, err := r.Prune(1)
	if err != nil {
		t.Fatal(err)
	}
	// v1 is active (kept); v2 removed; v3 is the newest (kept).
	if len(removed) != 1 || removed[0].Version != 2 {
		t.Fatalf("removed %+v, want just v2", removed)
	}
	if _, _, err := r.Load(1); err != nil {
		t.Fatalf("active v1 gone after prune: %v", err)
	}
	if _, _, err := r.Load(3); err != nil {
		t.Fatalf("newest v3 gone after prune: %v", err)
	}
	if _, _, err := r.Load(2); err == nil {
		t.Fatal("pruned v2 still loads")
	}
}

// TestRejectsMismatchedReference pins that a drift reference with the
// wrong width cannot be published.
func TestRejectsMismatchedReference(t *testing.T) {
	blob1, _, data := fixtures(t)
	wide, err := data.Select([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := drift.BuildReference(wide, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := open(t)
	if _, err := r.Publish(blob1, PublishOptions{Reference: ref}); err == nil {
		t.Fatal("2-feature reference accepted for a 4-feature model")
	}
}

// TestManifestSurvivesReopen pins durability: a fresh handle on the same
// directory sees everything.
func TestManifestSurvivesReopen(t *testing.T) {
	blob1, _, _ := fixtures(t)
	dir := filepath.Join(t.TempDir(), "models")
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(blob1, PublishOptions{Promote: true}); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r2.LoadEffective(""); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsCorruptManifest pins that a torn or tampered manifest
// fails at Open, before any model can be served from it.
func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "models")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"manifest_version":1,"active":9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "active version 9") {
		t.Fatalf("corrupt manifest open: %v", err)
	}
}

// TestPinLifecycle pins the canary primitive: Pin overrides Active for
// one shard only, Unpin restores it, and the pin table round-trips the
// manifest (omitted when empty).
func TestPinLifecycle(t *testing.T) {
	blob1, blob2, _ := fixtures(t)
	r := open(t)
	if _, err := r.Publish(blob1, PublishOptions{Promote: true}); err != nil { // v1 active
		t.Fatal(err)
	}
	e2, err := r.Publish(blob2, PublishOptions{}) // v2 candidate
	if err != nil {
		t.Fatal(err)
	}

	if _, err := r.Pin("", e2.Version); err == nil {
		t.Fatal("pin with empty shard id accepted")
	}
	if _, err := r.Pin("canary", 9); err == nil {
		t.Fatal("pin to unpublished version accepted")
	}
	if _, err := r.Pin("canary", e2.Version); err != nil {
		t.Fatal(err)
	}

	// The pinned shard sees v2; everyone else still follows active v1.
	_, eff, err := r.LoadEffective("canary")
	if err != nil {
		t.Fatal(err)
	}
	if eff.Version != 2 {
		t.Fatalf("pinned shard loads v%d, want v2", eff.Version)
	}
	_, eff, err = r.LoadEffective("other")
	if err != nil {
		t.Fatal(err)
	}
	if eff.Version != 1 {
		t.Fatalf("unpinned shard loads v%d, want active v1", eff.Version)
	}
	_, eff, err = r.LoadEffective("")
	if err != nil || eff.Version != 1 {
		t.Fatalf("empty shard id: v%d, %v, want active v1", eff.Version, err)
	}

	if err := r.Unpin("canary"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unpin("canary"); err != nil { // idempotent
		t.Fatal(err)
	}
	_, eff, err = r.LoadEffective("canary")
	if err != nil || eff.Version != 1 {
		t.Fatalf("after unpin: v%d, %v, want active v1", eff.Version, err)
	}
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Pins != nil {
		t.Fatalf("empty pin table persisted: %v", m.Pins)
	}
}

// TestPruneKeepsPinned is the regression test for prune removing a
// version a shard pin references: only the active version used to be
// protected, so pruning mid-bake deleted the canary's blob.
func TestPruneKeepsPinned(t *testing.T) {
	blob1, blob2, _ := fixtures(t)
	r := open(t)
	if _, err := r.Publish(blob1, PublishOptions{}); err != nil { // v1 pinned
		t.Fatal(err)
	}
	if _, err := r.Publish(blob2, PublishOptions{}); err != nil { // v2 prunable
		t.Fatal(err)
	}
	if _, err := r.Publish(blob1, PublishOptions{Promote: true}); err != nil { // v3 active
		t.Fatal(err)
	}
	if _, err := r.Pin("canary", 1); err != nil {
		t.Fatal(err)
	}
	removed, err := r.Prune(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0].Version != 2 {
		t.Fatalf("removed %+v, want just v2 (v1 is pinned, v3 is active)", removed)
	}
	if _, _, err := r.LoadEffective("canary"); err != nil {
		t.Fatalf("pinned v1 gone after prune: %v", err)
	}
	// v1 and v3 share bytes; the digest must survive v2's removal.
	if _, _, err := r.Load(3); err != nil {
		t.Fatalf("active v3 gone after prune: %v", err)
	}
}

// TestManifestRejectsDanglingPin pins validation: a pin referencing an
// unpublished version (e.g. hand-edited manifest) fails decode loudly.
func TestManifestRejectsDanglingPin(t *testing.T) {
	blob1, _, _ := fixtures(t)
	r := open(t)
	e, err := r.Publish(blob1, PublishOptions{Promote: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	m.Pins = map[string]int{"canary": e.Version + 7}
	if _, err := EncodeManifest(m); err == nil || !strings.Contains(err.Error(), "pinned to version") {
		t.Fatalf("dangling pin encode: %v", err)
	}
	m.Pins = map[string]int{"": e.Version}
	if _, err := EncodeManifest(m); err == nil || !strings.Contains(err.Error(), "empty shard id") {
		t.Fatalf("empty shard id encode: %v", err)
	}
}

// TestWatchSeesPromotion pins the watch loop: promoting a version wakes
// the callback with the new entry.
func TestWatchSeesPromotion(t *testing.T) {
	blob1, blob2, _ := fixtures(t)
	r := open(t)
	e1, err := r.Publish(blob1, PublishOptions{Promote: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(blob2, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := make(chan Entry, 1)
	go r.WatchEffective(ctx, 5*time.Millisecond, "", e1.Version, func(e Entry) { got <- e }, nil)
	if _, err := r.Promote(2); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.Version != 2 {
			t.Fatalf("watch reported v%d, want v2", e.Version)
		}
	case <-ctx.Done():
		t.Fatal("watch never reported the promotion")
	}
}

// TestWatchEffectiveSeesPinOnlyChange pins the rollout-critical watch
// path: a pin-table-only manifest write — no new version, no promotion,
// Active untouched — must still wake the shard it targets, and the
// later unpin must swap it back to the active version. A shard watching
// under a different id must see neither.
func TestWatchEffectiveSeesPinOnlyChange(t *testing.T) {
	blob1, blob2, _ := fixtures(t)
	r := open(t)
	e1, err := r.Publish(blob1, PublishOptions{Promote: true})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Publish(blob2, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	canary := make(chan Entry, 1)
	other := make(chan Entry, 1)
	go r.WatchEffective(ctx, 5*time.Millisecond, "canary", e1.Version, func(e Entry) { canary <- e }, nil)
	go r.WatchEffective(ctx, 5*time.Millisecond, "other", e1.Version, func(e Entry) { other <- e }, nil)

	if _, err := r.Pin("canary", e2.Version); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-canary:
		if e.Version != 2 {
			t.Fatalf("pinned shard watch reported v%d, want v2", e.Version)
		}
	case <-ctx.Done():
		t.Fatal("pin-only manifest change never reached the pinned shard's watch")
	}

	if err := r.Unpin("canary"); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-canary:
		if e.Version != 1 {
			t.Fatalf("unpin reported v%d, want active v1", e.Version)
		}
	case <-ctx.Done():
		t.Fatal("unpin never reached the pinned shard's watch")
	}

	// The untargeted shard's effective version never changed.
	select {
	case e := <-other:
		t.Fatalf("untargeted shard woke on someone else's pin: v%d", e.Version)
	case <-time.After(50 * time.Millisecond):
	}
}
