package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/registry"
	"twosmart/internal/serve"
	"twosmart/internal/telemetry"
)

// lockedBuffer is a log sink the test reads while the loop writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) count(s string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Count(b.buf.String(), s)
}

// testShard is one server following the registry under -watch, wired as
// main wires it, with the loop's SIGHUP and tick channels in the test's
// hands.
type testShard struct {
	srv  *serve.Server
	tel  *telemetry.Registry
	log  *lockedBuffer
	hup  chan os.Signal
	tick chan time.Time
}

func startShard(t *testing.T, reg *registry.Registry, shardID string) *testShard {
	t.Helper()
	initial, _, err := registryModel(reg, 0, shardID)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	srv, err := serve.New(serve.Config{Model: initial, Telemetry: tel,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	sh := &testShard{srv: srv, tel: tel, log: &lockedBuffer{},
		hup: make(chan os.Signal), tick: make(chan time.Time)}
	f := &follower{srv: srv, reg: reg, shardID: shardID, watch: true,
		log: slog.New(slog.NewTextHandler(sh.log, nil)), seen: initial.Version,
		pinned: tel.Gauge("serve_rollout_pinned")}
	f.wake(false)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		f.run(ctx, sh.hup, sh.tick)
		close(done)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return sh
}

// poll delivers one watch tick. The loop takes one wake at a time, so
// the second send returns only once the first wake has finished; that
// second wake finds the effective version it already acted on and only
// refreshes the pinned gauge.
func (sh *testShard) poll() {
	sh.tick <- time.Time{}
	sh.tick <- time.Time{}
}

// sighup delivers one SIGHUP, then a tick as the same barrier.
func (sh *testShard) sighup() {
	sh.hup <- syscall.SIGHUP
	sh.tick <- time.Time{}
}

// expect checks the active version, the swap count and the pinned gauge.
func (sh *testShard) expect(t *testing.T, step string, version int, swaps uint64, pinned float64) {
	t.Helper()
	if got := sh.srv.ActiveModel().Version; got != version {
		t.Fatalf("%s: serving v%d, want v%d", step, got, version)
	}
	if got := sh.tel.Counter("serve_model_swaps_total").Value(); got != swaps {
		t.Fatalf("%s: %d swaps, want %d", step, got, swaps)
	}
	if got := sh.tel.Gauge("serve_rollout_pinned").Value(); got != pinned {
		t.Fatalf("%s: serve_rollout_pinned = %v, want %v", step, got, pinned)
	}
}

// TestFollowRegistry drives the registry-following loop through a
// promotion, a canary pin and unpin, a widen, a same-version SIGHUP and
// a version that fails to load.
func TestFollowRegistry(t *testing.T) {
	data, err := corpus.Collect(corpus.Config{Scale: 0.001, MinPerClass: 24, Budget: 30000, Seed: 7, Omniscient: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err = data.SelectByName(core.CommonFeatures)
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.Train(data, core.TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := det.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}
	for _, promote := range []bool{true, false, false} {
		if _, err := reg.Publish(blob, registry.PublishOptions{Promote: promote}); err != nil {
			t.Fatal(err)
		}
	}
	canary := startShard(t, reg, "canary")
	other := startShard(t, reg, "other")
	canary.expect(t, "start", 1, 0, 0)

	// A promotion reaches every shard.
	if _, err := reg.Promote(2); err != nil {
		t.Fatal(err)
	}
	canary.poll()
	other.poll()
	canary.expect(t, "promote v2", 2, 1, 0)
	other.expect(t, "promote v2", 2, 1, 0)

	// A pin-only write swaps the pinned shard and no other.
	if _, err := reg.Pin("canary", 3); err != nil {
		t.Fatal(err)
	}
	canary.poll()
	other.poll()
	canary.expect(t, "pin canary to v3", 3, 2, 1)
	other.expect(t, "pin canary to v3", 2, 1, 0)

	// Unpinning swaps the canary back to the active version.
	if err := reg.Unpin("canary"); err != nil {
		t.Fatal(err)
	}
	canary.poll()
	canary.expect(t, "unpin", 2, 3, 0)

	// Widen: pin, promote the pinned version, unpin. The canary's
	// effective version stays v3 throughout, so only the gauge moves.
	if _, err := reg.Pin("canary", 3); err != nil {
		t.Fatal(err)
	}
	canary.poll()
	canary.expect(t, "re-pin", 3, 4, 1)
	if _, err := reg.Promote(3); err != nil {
		t.Fatal(err)
	}
	canary.poll()
	canary.expect(t, "widen: promote", 3, 4, 1)
	if err := reg.Unpin("canary"); err != nil {
		t.Fatal(err)
	}
	canary.poll()
	canary.expect(t, "widen: unpin", 3, 4, 0)
	if canary.log.count("hot swap complete") != 4 {
		t.Fatalf("want 4 hot swap complete lines, log has %d", canary.log.count("hot swap complete"))
	}

	// A same-version SIGHUP is a logged no-op.
	canary.sighup()
	canary.expect(t, "SIGHUP", 3, 4, 0)
	if canary.log.count("hot swap skipped: version unchanged") != 1 || canary.log.count("trigger=SIGHUP") != 1 {
		t.Fatal("same-version SIGHUP not logged as skipped")
	}

	// A version that fails to load is retried on SIGHUP or once the
	// effective version moves again, not on every poll. v4 has its own
	// blob (trailing whitespace), which is then truncated on disk.
	e4, err := reg.Publish(append(blob, '\n'), registry.PublishOptions{Promote: true})
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(reg.BlobPath(e4.SHA256))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reg.BlobPath(e4.SHA256), good[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	other.poll()
	other.poll()
	other.expect(t, "v4 broken", 2, 1, 0)
	if n := other.log.count("hot swap failed"); n != 1 {
		t.Fatalf("two polls of a broken v4 logged %d failures, want 1", n)
	}
	other.sighup()
	if n := other.log.count("hot swap failed"); n != 2 {
		t.Fatalf("SIGHUP did not retry the broken v4: %d failures logged, want 2", n)
	}
	if err := os.WriteFile(reg.BlobPath(e4.SHA256), good, 0o644); err != nil {
		t.Fatal(err)
	}
	other.poll()
	other.expect(t, "v4 repaired, polled", 2, 1, 0)
	other.sighup()
	other.expect(t, "v4 repaired, SIGHUP", 4, 2, 0)
}
