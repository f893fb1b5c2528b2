package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/serve"
	"twosmart/internal/session"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

var (
	fixOnce sync.Once
	fixDet  *core.Detector
	fixData *dataset.Dataset
	fixErr  error
)

// fixtures trains one tiny Common-4 detector for the whole package and
// keeps the corpus it was trained on as a sample source.
func fixtures(t *testing.T) (*core.Detector, *dataset.Dataset) {
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
		fixDet, fixErr = core.Train(fixData, core.TrainConfig{Seed: 5})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDet, fixData
}

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

type testShard struct {
	addr    string
	reg     *telemetry.Registry
	cancel  context.CancelFunc
	done    chan error
	stopped bool
}

// kill drains the shard (the in-process equivalent of SIGTERM) and waits
// for Serve to return.
func (sh *testShard) kill(t *testing.T) {
	t.Helper()
	sh.cancel()
	sh.stopped = true
	select {
	case err := <-sh.done:
		if err != nil {
			t.Errorf("shard Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("shard did not drain within 10s")
	}
}

func startShard(t *testing.T) *testShard {
	t.Helper()
	det, _ := fixtures(t)
	reg := telemetry.New()
	srv, err := serve.New(serve.Config{Detector: det, Telemetry: reg, Log: quietLog()})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sh := &testShard{addr: addr.String(), reg: reg, cancel: cancel, done: make(chan error, 1)}
	go func() { sh.done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		if sh.stopped {
			return
		}
		cancel()
		select {
		case <-sh.done:
		case <-time.After(10 * time.Second):
		}
	})
	return sh
}

type testGateway struct {
	addr   string
	reg    *telemetry.Registry
	cancel context.CancelFunc
	done   chan error
}

func startGateway(t *testing.T, shards []string) *testGateway {
	return startGatewayWith(t, shards, nil)
}

// startGatewayWith boots a gateway whose Config was adjusted by tweak.
func startGatewayWith(t *testing.T, shards []string, tweak func(*Config)) *testGateway {
	t.Helper()
	reg := telemetry.New()
	cfg := Config{
		Shards:        shards,
		CheckInterval: 100 * time.Millisecond,
		DialTimeout:   2 * time.Second,
		Telemetry:     reg,
		Log:           quietLog(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tg := &testGateway{addr: addr.String(), reg: reg, cancel: cancel, done: make(chan error, 1)}
	go func() { tg.done <- gw.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-tg.done:
			if err != nil {
				t.Errorf("gateway Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("gateway did not drain within 10s")
		}
	})
	return tg
}

func dialGateway(t *testing.T, tg *testGateway, agent string) *session.Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := session.Dial(ctx, tg.addr, agent)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// collect reads gateway frames until want summaries arrived, folding
// verdict counts into the caller's map. Any Error frame fails the test —
// the cluster contract is that shard-side trouble stays invisible to
// agents.
func collect(t *testing.T, c *session.Client, verdicts map[uint32]int, want int) (summaries map[uint32]wire.StreamSummary) {
	t.Helper()
	summaries = make(map[uint32]wire.StreamSummary)
	for len(summaries) < want {
		f, err := c.Next()
		if err != nil {
			t.Fatalf("client read (have %d/%d summaries): %v", len(summaries), want, err)
		}
		switch fr := f.(type) {
		case wire.Verdict:
			verdicts[fr.Stream]++
		case wire.StreamSummary:
			summaries[fr.Stream] = fr
		case wire.Error:
			t.Fatalf("client-visible error frame: code %d: %s", fr.Code, fr.Msg)
		}
	}
	return summaries
}

// awaitVerdicts reads frames until every stream id in [0, streams) has at
// least one verdict, folding counts into verdicts. It proves each stream
// was placed on a shard and scored — the pre-kill barrier the failover
// test needs, since the client's writes race far ahead of the gateway's
// placement rounds.
func awaitVerdicts(t *testing.T, c *session.Client, verdicts map[uint32]int, streams int) {
	t.Helper()
	covered := 0
	for _, n := range verdicts {
		if n > 0 {
			covered++
		}
	}
	for covered < streams {
		f, err := c.Next()
		if err != nil {
			t.Fatalf("client read (verdicts from %d/%d streams): %v", covered, streams, err)
		}
		switch fr := f.(type) {
		case wire.Verdict:
			if verdicts[fr.Stream] == 0 {
				covered++
			}
			verdicts[fr.Stream]++
		case wire.Error:
			t.Fatalf("client-visible error frame: code %d: %s", fr.Code, fr.Msg)
		}
	}
}

const (
	testAgent   = "gw-test-agent"
	testStreams = 16
)

func testApp(s int) string { return fmt.Sprintf("gwapp-%d", s) }

func sendWave(t *testing.T, c *session.Client, data *dataset.Dataset, streams, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for s := 0; s < streams; s++ {
			fv := data.Instances[(i*streams+s)%data.Len()].Features
			if err := c.Send(uint32(s), uint32(from+i), fv); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
}

// TestGatewayRoutesAcrossShards runs the full two-shard topology: every
// stream's verdicts come back through the gateway, summaries account for
// every sample, and traffic lands on the shards exactly where the
// consistent-hash ring predicts.
func TestGatewayRoutesAcrossShards(t *testing.T) {
	_, data := fixtures(t)
	sh1, sh2 := startShard(t), startShard(t)
	tg := startGateway(t, []string{sh1.addr, sh2.addr})
	c := dialGateway(t, tg, testAgent)

	const perStream = 40
	for s := 0; s < testStreams; s++ {
		if err := c.OpenStream(uint32(s), testApp(s)); err != nil {
			t.Fatal(err)
		}
	}
	sendWave(t, c, data, testStreams, 0, perStream)
	for s := 0; s < testStreams; s++ {
		if err := c.CloseStream(uint32(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	verdicts := make(map[uint32]int)
	summaries := collect(t, c, verdicts, testStreams)

	// Every sample is either scored (verdict relayed) or accounted shed.
	for s := 0; s < testStreams; s++ {
		sum, ok := summaries[uint32(s)]
		if !ok {
			t.Fatalf("no summary for stream %d", s)
		}
		if got := sum.Samples + sum.Shed; got != perStream {
			t.Fatalf("stream %d: scored %d + shed %d = %d, want %d", s, sum.Samples, sum.Shed, got, perStream)
		}
		if verdicts[uint32(s)] != int(sum.Samples) {
			t.Fatalf("stream %d: %d verdicts relayed, summary says %d scored", s, verdicts[uint32(s)], sum.Samples)
		}
	}

	// Placement matches the ring the load generator would predict with,
	// and with 16 streams both shards all but surely carry traffic.
	ring := BuildRing([]string{sh1.addr, sh2.addr}, DefaultReplicas)
	predicted := map[string]uint64{}
	for s := 0; s < testStreams; s++ {
		predicted[ring.Route(RouteKey(testAgent, testApp(s)))] += uint64(summaries[uint32(s)].Samples)
	}
	for _, sh := range []*testShard{sh1, sh2} {
		scored := sh.reg.Counter("serve_verdicts_total").Value()
		if scored != predicted[sh.addr] {
			t.Fatalf("shard %s scored %d samples, ring predicts %d", sh.addr, scored, predicted[sh.addr])
		}
		if scored == 0 {
			t.Fatalf("shard %s carried no traffic; consistent-hash spread failed (predicted %v)", sh.addr, predicted)
		}
	}
}

// TestGatewayReroutesOnShardDeath kills one shard mid-run and requires
// that agents see zero connection errors: every stream still gets its
// summary, the survivors' traffic continues, and the gateway counts the
// reroutes.
func TestGatewayReroutesOnShardDeath(t *testing.T) {
	_, data := fixtures(t)
	sh1, sh2 := startShard(t), startShard(t)
	tg := startGateway(t, []string{sh1.addr, sh2.addr})
	c := dialGateway(t, tg, testAgent)

	for s := 0; s < testStreams; s++ {
		if err := c.OpenStream(uint32(s), testApp(s)); err != nil {
			t.Fatal(err)
		}
	}
	// Wave 1 with the full fleet. Wait for a verdict from every stream
	// before the kill: the agent's writes race far ahead of the gateway's
	// placement rounds, and the reroute counter is only meaningful for
	// streams that actually lived on the dead shard first.
	sendWave(t, c, data, testStreams, 0, 30)
	verdicts := make(map[uint32]int)
	awaitVerdicts(t, c, verdicts, testStreams)
	preKill := make(map[uint32]int, len(verdicts))
	for s, n := range verdicts {
		preKill[s] = n
	}
	sh1.kill(t) // SIGTERM-equivalent on shard 1

	// Wave 2: streams that lived on the dead shard must drain onto the
	// survivor without the agent noticing anything but a monitor reset.
	// Several waves with small pauses give the gateway's failure detection
	// (relay errors + health probes every 100ms) time to converge while
	// traffic keeps flowing.
	for wave := 0; wave < 5; wave++ {
		sendWave(t, c, data, testStreams, 30+wave*10, 10)
		time.Sleep(150 * time.Millisecond)
	}
	for s := 0; s < testStreams; s++ {
		if err := c.CloseStream(uint32(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	summaries := collect(t, c, verdicts, testStreams)
	if len(summaries) != testStreams {
		t.Fatalf("got %d summaries, want %d", len(summaries), testStreams)
	}

	// The ring routed some of the 16 streams to the dead shard (the
	// balance test makes all-on-one-shard astronomically unlikely); those
	// must have been rerouted, and their post-death samples scored on the
	// survivor — more verdicts than they had before the kill.
	ring := BuildRing([]string{sh1.addr, sh2.addr}, DefaultReplicas)
	movedStreams := 0
	for s := 0; s < testStreams; s++ {
		if ring.Route(RouteKey(testAgent, testApp(s))) == sh1.addr {
			movedStreams++
			if verdicts[uint32(s)] <= preKill[uint32(s)] {
				t.Errorf("stream %d lived on the dead shard and got no verdict after reroute (pre-kill %d, total %d)",
					s, preKill[uint32(s)], verdicts[uint32(s)])
			}
		}
	}
	if movedStreams == 0 {
		t.Skip("hash placed no stream on the killed shard; nothing to assert")
	}
	if rerouted := tg.reg.Counter("cluster_streams_rerouted_total").Value(); rerouted == 0 {
		t.Error("cluster_streams_rerouted_total = 0 after shard death")
	}
	if changes := tg.reg.Counter("cluster_membership_changes_total").Value(); changes == 0 {
		t.Error("cluster_membership_changes_total = 0 after shard death")
	}
	if healthy := tg.reg.Gauge("cluster_shards_healthy").Value(); healthy != 1 {
		t.Errorf("cluster_shards_healthy = %v, want 1", healthy)
	}
}

// TestGatewayNoShards: with the whole fleet down the gateway refuses
// agent handshakes with CodeUnavailable instead of hanging or crashing.
func TestGatewayNoShards(t *testing.T) {
	// A listener that is immediately closed: a configured but dead shard.
	sh := startShard(t)
	sh.kill(t)
	tg := startGateway(t, []string{sh.addr})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := session.Dial(ctx, tg.addr, "lonely-agent")
	if err == nil {
		t.Fatal("handshake succeeded with no healthy shard")
	}
}

// TestGatewayCanaryLabeling exercises the version-feed → canary-split
// relabeling directly: the baseline is the version most healthy shards
// report (ties break toward the older version), every healthy shard on
// a different version is a canary, and the agent-facing Welcome
// template tracks the baseline.
func TestGatewayCanaryLabeling(t *testing.T) {
	shards := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}
	reg := telemetry.New()
	gw, err := New(Config{
		Shards:        shards,
		CheckInterval: time.Hour, // health loop never runs; the test drives the feed
		DialTimeout:   time.Second,
		Telemetry:     reg,
		Log:           quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	gw.mu.Lock()
	for _, s := range shards {
		gw.up[s] = true
	}
	gw.mu.Unlock()
	gw.welcome.Store(&wire.Welcome{Proto: wire.ProtoVersion, ModelVersion: 1})

	canaryOf := func(s string) float64 {
		return reg.Gauge(telemetry.Label("cluster_shard_canary", "shard", s)).Value()
	}
	versionOf := func(s string) float64 {
		return reg.Gauge(telemetry.Label("cluster_shard_model_version", "shard", s)).Value()
	}

	// Pre-registry echoes (version 0) are ignored entirely.
	gw.observeVersion(shards[0], 0)
	if got := versionOf(shards[0]); got != 0 {
		t.Fatalf("version gauge after v0 echo = %v, want 0", got)
	}

	// Uniform fleet: no canary anywhere.
	for _, s := range shards {
		gw.observeVersion(s, 1)
	}
	for _, s := range shards {
		if canaryOf(s) != 0 {
			t.Errorf("uniform fleet: shard %s labeled canary", s)
		}
	}

	// One shard pinned to a newer candidate: it alone is the canary and
	// its version gauge follows the echo.
	gw.observeVersion(shards[2], 2)
	if got := versionOf(shards[2]); got != 2 {
		t.Errorf("version gauge = %v, want 2", got)
	}
	if canaryOf(shards[2]) != 1 {
		t.Error("pinned shard not labeled canary")
	}
	if canaryOf(shards[0]) != 0 || canaryOf(shards[1]) != 0 {
		t.Error("baseline shard labeled canary")
	}
	if w := gw.welcome.Load(); w.ModelVersion != 1 {
		t.Errorf("welcome ModelVersion = %d, want baseline 1", w.ModelVersion)
	}

	// Even 1-vs-1 split (third shard down): the tie breaks toward the
	// older version, so the newer shard stays the canary; the down shard
	// is never a canary regardless of its last echo.
	gw.mu.Lock()
	gw.up[shards[1]] = false
	gw.mu.Unlock()
	gw.observeVersion(shards[2], 2) // same version: no-op fast path
	gw.mu.Lock()
	gw.recomputeCanaryLocked()
	gw.mu.Unlock()
	if canaryOf(shards[2]) != 1 {
		t.Error("tie split: newer shard lost canary label")
	}
	if canaryOf(shards[1]) != 0 {
		t.Error("down shard labeled canary")
	}

	// Widen lands: the whole fleet reports the candidate, the canary
	// label clears and the Welcome template moves to the new baseline.
	gw.mu.Lock()
	gw.up[shards[1]] = true
	gw.mu.Unlock()
	gw.observeVersion(shards[0], 2)
	gw.observeVersion(shards[1], 2)
	for _, s := range shards {
		if canaryOf(s) != 0 {
			t.Errorf("post-widen: shard %s still labeled canary", s)
		}
	}
	if w := gw.welcome.Load(); w.ModelVersion != 2 {
		t.Errorf("post-widen welcome ModelVersion = %d, want 2", w.ModelVersion)
	}
}
