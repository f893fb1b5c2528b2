package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
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
	return startShardWith(t, nil)
}

// startShardWith boots a shard whose Config was adjusted by tweak.
func startShardWith(t *testing.T, tweak func(*serve.Config)) *testShard {
	t.Helper()
	det, _ := fixtures(t)
	reg := telemetry.New()
	cfg := serve.Config{Model: serve.Model{Detector: det}, Telemetry: reg, Log: quietLog()}
	if tweak != nil {
		tweak(&cfg)
	}
	srv, err := serve.New(cfg)
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
	// The relay counts every Verdict it passes through, run by run.
	received, relayed := 0, uint64(0)
	for _, n := range verdicts {
		received += n
	}
	for _, sh := range []*testShard{sh1, sh2} {
		relayed += tg.reg.Counter(telemetry.Label("cluster_verdicts_relayed_total", "shard", sh.addr)).Value()
	}
	if relayed != uint64(received) {
		t.Fatalf("cluster_verdicts_relayed_total sums to %d over the shards, the agent received %d verdicts", relayed, received)
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

// TestGatewayIdleReapKeepsShard: a shard reaping the gateway's quiet
// upstream connection is not a shard failure. The membership stays put,
// no stream drains, and the stream's next samples re-dial the same shard.
func TestGatewayIdleReapKeepsShard(t *testing.T) {
	_, data := fixtures(t)
	idle := func(c *serve.Config) { c.IdleTimeout = 300 * time.Millisecond }
	shards := []*testShard{startShardWith(t, idle), startShardWith(t, idle)}
	tg := startGateway(t, []string{shards[0].addr, shards[1].addr})
	c := dialGateway(t, tg, testAgent)
	// Place the stream only once both shards are in the ring, so joining
	// membership cannot move it.
	healthy := tg.reg.Gauge("cluster_shards_healthy")
	for deadline := time.Now().Add(5 * time.Second); healthy.Value() != 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster_shards_healthy = %v, want 2", healthy.Value())
		}
	}

	if err := c.OpenStream(0, testApp(0)); err != nil {
		t.Fatal(err)
	}
	sendWave(t, c, data, 1, 0, 10)
	verdicts := make(map[uint32]int)
	awaitVerdicts(t, c, verdicts, 1)
	// Silence: the shard reaps the gateway's upstream (the health probes
	// keep their own connections alive).
	reaped := func() uint64 {
		return shards[0].reg.Counter("serve_conns_reaped_total").Value() +
			shards[1].reg.Counter("serve_conns_reaped_total").Value()
	}
	for deadline := time.Now().Add(5 * time.Second); reaped() == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no shard reaped the idle upstream within 5s")
		}
	}

	sendWave(t, c, data, 1, 10, 10)
	if err := c.CloseStream(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	collect(t, c, verdicts, 1)
	if verdicts[0] != 20 {
		t.Errorf("%d verdicts relayed, want 20", verdicts[0])
	}
	if changes := tg.reg.Counter("cluster_membership_changes_total").Value(); changes != 2 {
		t.Errorf("cluster_membership_changes_total = %d, want 2: an idle reap took a healthy shard out of the ring", changes)
	}
	if drained := tg.reg.Counter("cluster_streams_drained_total").Value(); drained != 0 {
		t.Errorf("cluster_streams_drained_total = %d, want 0", drained)
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

// TestGatewayCanaryLabeling pins what the gateway still reports about a
// rollout: each shard's live version from its heartbeat echoes, and an
// agent-facing Welcome that follows the version most healthy shards
// report — also when the pinned candidate is older than the active
// version, with a tie keeping the template where it is. Which shard is
// the canary is the registry pin table's to say: the gateway exports no
// canary series.
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
	for _, s := range shards {
		gw.setHealth(s, true)
	}
	gw.welcome.Store(&wire.Welcome{Proto: wire.ProtoVersion, ModelVersion: 3})

	versionOf := func(s string) float64 {
		return reg.Gauge(telemetry.Label("cluster_shard_model_version", "shard", s)).Value()
	}
	welcome := func() uint32 { return gw.welcome.Load().ModelVersion }

	// Pre-registry echoes (version 0) are ignored entirely.
	gw.observeVersion(shards[0], 0)
	if got := versionOf(shards[0]); got != 0 {
		t.Fatalf("version gauge after v0 echo = %v, want 0", got)
	}

	// v3 active fleet-wide, then the older v2 pinned to one shard: its
	// version gauge follows the echo and the Welcome stays on the
	// majority.
	for _, s := range shards {
		gw.observeVersion(s, 3)
	}
	gw.observeVersion(shards[2], 2)
	if got := versionOf(shards[2]); got != 2 {
		t.Errorf("version gauge = %v, want 2", got)
	}
	if w := welcome(); w != 3 {
		t.Errorf("welcome ModelVersion = %d, want the majority's 3", w)
	}

	// A v3 shard goes down, leaving one shard on each version: the tie
	// keeps the template on v3 rather than moving it to the candidate.
	gw.setHealth(shards[1], false)
	if w := welcome(); w != 3 {
		t.Errorf("1-vs-1 split: welcome ModelVersion = %d, want 3 kept", w)
	}

	// A widen lands: the whole fleet reports v4 and the Welcome follows.
	gw.setHealth(shards[1], true)
	for _, s := range shards {
		gw.observeVersion(s, 4)
	}
	if w := welcome(); w != 4 {
		t.Errorf("post-widen welcome ModelVersion = %d, want 4", w)
	}

	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp.String(), "canary") {
		t.Errorf("gateway exports a canary series:\n%s", exp.String())
	}
}

// TestGatewayProbeRedialKeepsWelcome: with one shard on each version, a
// shard whose probe connection was lost and re-dialed must not move the
// agent Welcome to its version. The re-dial brings that shard's own
// Welcome, but its live version is unchanged, so the template must keep
// the version the tie rule chose.
func TestGatewayProbeRedialKeepsWelcome(t *testing.T) {
	active, canary := startFakeShard(t), startFakeShard(t)
	active.version.Store(1)
	canary.version.Store(2)
	gw, err := New(Config{
		Shards:        []string{active.addr, canary.addr},
		CheckInterval: time.Hour, // health loop never runs; the test drives the passes
		DialTimeout:   time.Second,
		Log:           quietLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		for _, sh := range gw.shards {
			if sh.probe != nil {
				sh.probe.Close()
			}
		}
	})
	ctx := context.Background()
	welcome := func() uint32 { return gw.welcome.Load().ModelVersion }
	healthy := func(addr string) bool {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		return gw.shards[addr].healthy
	}

	gw.checkAll(ctx)
	if !healthy(active.addr) || !healthy(canary.addr) {
		t.Fatal("first health pass: want both shards healthy")
	}
	if w := welcome(); w != 1 {
		t.Fatalf("first health pass: welcome ModelVersion = %d, want 1", w)
	}

	// The canary's probe connection drops: one failing pass takes it out
	// of the fleet, the next re-dials it.
	canary.mu.Lock()
	for _, nc := range canary.conns {
		nc.Close()
	}
	canary.mu.Unlock()
	gw.checkAll(ctx)
	if healthy(canary.addr) {
		t.Fatal("pass after the drop: canary still healthy")
	}
	if w := welcome(); w != 1 {
		t.Fatalf("pass after the drop: welcome ModelVersion = %d, want 1", w)
	}
	gw.checkAll(ctx)
	if !healthy(canary.addr) {
		t.Fatal("re-dial pass: canary not healthy again")
	}
	if w := welcome(); w != 1 {
		t.Fatalf("re-dial pass: welcome ModelVersion = %d, want 1 kept (the re-dialed canary's Welcome moved it)", w)
	}
}

// TestGatewayGracefulDrain mirrors TestServeGracefulDrain through a
// gateway: once the gateway has forwarded every sample it drains, and
// the shard's verdicts for them still reach the agent, all before the
// CodeDraining notice.
func TestGatewayGracefulDrain(t *testing.T) {
	_, data := fixtures(t)
	sh := startShard(t)
	tg := startGateway(t, []string{sh.addr})
	c := dialGateway(t, tg, testAgent)

	const n = 2000
	if err := c.OpenStream(0, testApp(0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Send(0, uint32(i), data.Instances[i%data.Len()].Features); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the gateway has forwarded everything, then drain it.
	fwd := tg.reg.Counter(telemetry.Label("cluster_samples_forwarded_total", "shard", sh.addr))
	for deadline := time.Now().Add(10 * time.Second); fwd.Value() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("gateway forwarded %d/%d samples", fwd.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
	tg.cancel()

	var verdicts int
	var sawDraining bool
	for {
		f, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch fr := f.(type) {
		case wire.Verdict:
			if sawDraining {
				t.Fatal("verdict after the CodeDraining notice")
			}
			verdicts++
		case wire.Error:
			if fr.Code != wire.CodeDraining {
				t.Fatalf("error %+v, want CodeDraining", fr)
			}
			sawDraining = true
		default:
			t.Fatalf("unexpected frame %#v", f)
		}
	}
	if verdicts != n {
		t.Fatalf("drain delivered %d verdicts, want %d", verdicts, n)
	}
	if !sawDraining {
		t.Fatal("no CodeDraining notice before close")
	}
}
