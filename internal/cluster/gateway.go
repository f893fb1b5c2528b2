// Package cluster is the sharded gateway tier: a wire-protocol front end
// that fans a fleet of agent connections out over N backend smartserve
// shards. Agents speak the exact same protocol to the gateway as to a
// single server — the gateway completes their handshake, then routes each
// (agent, app) stream to a shard by consistent hash and relays samples up
// and verdicts back.
//
// The agent-facing connection lifecycle is internal/session's front end,
// the same one internal/serve runs: handshake, read loop, drop-oldest
// ingress ring, adaptive micro-batch worker and graceful drain. The
// gateway supplies only its policy: the Welcome is the template probed
// from the shards (CodeUnavailable while none has answered), Heartbeats
// echo verbatim, and each connection runs a forwarder instead of a
// scorer. Metrics land in the cluster_* families.
//
// Placement: streams route on a consistent-hash ring with virtual nodes
// (see Ring) keyed by RouteKey(agent, app), over the currently healthy
// shard set. A health loop probes every configured shard each
// CheckInterval with a Heartbeat round-trip on a dedicated probe
// connection; data-path failures mark a shard down immediately. Any
// change to the healthy set builds a new ring and bumps the membership
// epoch; streams notice the epoch change on their next batch, drain off
// their old shard (CloseStream upstream, summary suppressed) and re-open
// on their new one. Rerouting resets the stream's monitor state on the
// new shard — the smoothing window restarts — which is the price of
// keeping shards stateless about each other.
//
// Delivery semantics across failover are at-least-once: a batch that
// fails mid-send is re-sent in full to the replacement shard, so a few
// samples around the failure may be scored twice (and the verdicts for
// in-flight samples on the dead shard are lost). With no healthy shard a
// stream's batches are dropped and counted (cluster_samples_dropped_total)
// rather than killing the agent connection — agents ride out a full
// outage and resume when a shard returns.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"twosmart/internal/session"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
	"twosmart/internal/wire"
)

// Config configures a Gateway.
type Config struct {
	// Shards lists the backend smartserve addresses. Required, >= 1.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring
	// (default DefaultReplicas).
	Replicas int
	// CheckInterval is the shard health-probe period (default 2s).
	CheckInterval time.Duration
	// DialTimeout bounds each upstream dial + handshake, and how long an
	// ending agent connection waits for its shards' last verdicts
	// (default 3s).
	DialTimeout time.Duration
	// QueueDepth bounds each agent connection's ingress ring (default
	// 4096); beyond it the oldest queued samples are shed.
	QueueDepth int
	// Telemetry, when non-nil, receives the cluster_* metric families.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, samples forwarded batches into gateway-tier
	// trace records (queue wait, routing/assembly, upstream write). The
	// forwarded Sample frames additionally carry the gateway's ingress
	// stamp regardless of Tracer, so the shard tier can attribute the
	// gateway→shard hop in its own end-to-end records.
	Tracer *trace.Tracer
	// Log receives lifecycle events (default slog.Default).
	Log *slog.Logger
}

func (c Config) fill() (Config, error) {
	if len(c.Shards) == 0 {
		return c, errors.New("cluster: no shards configured")
	}
	seen := make(map[string]bool, len(c.Shards))
	for _, s := range c.Shards {
		if s == "" {
			return c, errors.New("cluster: empty shard address")
		}
		if seen[s] {
			return c, fmt.Errorf("cluster: duplicate shard %q", s)
		}
		seen[s] = true
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 3 * time.Second
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4096
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("cluster: queue depth %d below 1", c.QueueDepth)
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c, nil
}

// routeState is one immutable routing generation: the ring over the
// healthy shards plus the membership epoch it was built at. Streams
// compare epochs to detect membership changes without locking.
type routeState struct {
	epoch uint64
	ring  *Ring
}

// shard is one configured shard's record: its labeled instruments, built
// once so the data path never formats label strings, and its health, live
// model version and probe connection, guarded by Gateway.mu.
type shard struct {
	addr      string
	routed    telemetry.Counter
	forwarded telemetry.Counter
	relayed   telemetry.Counter
	up        telemetry.Gauge
	probeRTT  telemetry.Gauge
	version   telemetry.Gauge

	healthy bool
	live    uint32          // model version from heartbeat echoes; 0 until one reports
	probe   *session.Client // health-probe connection; nil until dialed
}

// Gateway accepts agent connections and routes their streams across the
// shard fleet.
type Gateway struct {
	cfg Config
	fe  *session.Frontend

	routeP  atomic.Pointer[routeState]
	welcome atomic.Pointer[wire.Welcome] // shard Welcome template for agent handshakes

	// shards holds one record per configured shard, by address. New
	// fills it and nothing adds to it afterwards, so lookups need no lock.
	shards map[string]*shard

	mu    sync.Mutex // guards epoch and each shard's healthy, live and probe
	epoch uint64

	rerouted        telemetry.Counter
	drained         telemetry.Counter
	dropped         telemetry.Counter
	shardsHealthy   telemetry.Gauge
	memberChanges   telemetry.Counter
	healthFailures  telemetry.Counter
	upstreamFlushes telemetry.Counter
}

// New validates the configuration and builds a gateway. Call Listen then
// Serve.
func New(cfg Config) (*Gateway, error) {
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	reg := filled.Telemetry
	g := &Gateway{
		cfg:             filled,
		shards:          make(map[string]*shard, len(filled.Shards)),
		rerouted:        reg.Counter("cluster_streams_rerouted_total"),
		drained:         reg.Counter("cluster_streams_drained_total"),
		dropped:         reg.Counter("cluster_samples_dropped_total"),
		shardsHealthy:   reg.Gauge("cluster_shards_healthy"),
		memberChanges:   reg.Counter("cluster_membership_changes_total"),
		healthFailures:  reg.Counter("cluster_health_check_failures_total"),
		upstreamFlushes: reg.Counter("cluster_upstream_flushes_total"),
	}
	for _, addr := range filled.Shards {
		g.shards[addr] = &shard{
			addr:      addr,
			routed:    reg.Counter(telemetry.Label("cluster_streams_routed_total", "shard", addr)),
			forwarded: reg.Counter(telemetry.Label("cluster_samples_forwarded_total", "shard", addr)),
			relayed:   reg.Counter(telemetry.Label("cluster_verdicts_relayed_total", "shard", addr)),
			up:        reg.Gauge(telemetry.Label("cluster_shard_up", "shard", addr)),
			probeRTT:  reg.Gauge(telemetry.Label("cluster_probe_rtt_seconds", "shard", addr)),
			version:   reg.Gauge(telemetry.Label("cluster_shard_model_version", "shard", addr)),
		}
	}
	g.fe = session.NewFrontend(session.Tier{
		Welcome:    g.agentWelcome,
		NewHandler: g.forward,
		QueueDepth: filled.QueueDepth,
		Metrics: session.Metrics{
			ConnsActive: reg.Gauge("cluster_connections_active"),
			ConnsTotal:  reg.Counter("cluster_connections_total"),
			Samples:     reg.Counter("cluster_samples_total"),
			Shed:        reg.Counter("cluster_shed_total"),
			ProtoErrs:   reg.Counter("cluster_protocol_errors_total"),
			BatchSize:   reg.Histogram("cluster_batch_size", session.BatchSizeBuckets),
			Flushes:     reg.Counter("cluster_flushes_total"),
		},
		Log: filled.Log,
	})
	g.routeP.Store(&routeState{epoch: 0, ring: BuildRing(nil, filled.Replicas)})
	return g, nil
}

// route returns the current routing generation.
func (g *Gateway) route() *routeState { return g.routeP.Load() }

// setHealth records one shard's probe outcome and rebuilds the ring when
// the healthy set changed.
func (g *Gateway) setHealth(addr string, healthy bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if sh := g.shards[addr]; sh.healthy != healthy {
		sh.healthy = healthy
		g.rebuildLocked(sh)
	}
}

// reportFailure marks a shard down from the data path (a failed dial,
// send or relay read), without waiting for the next health pass. The
// probe connection, if any, is torn down so the health loop re-dials.
func (g *Gateway) reportFailure(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sh := g.shards[addr]
	if !sh.healthy {
		return
	}
	sh.healthy = false
	if sh.probe != nil {
		sh.probe.Close()
		sh.probe = nil
	}
	g.rebuildLocked(sh)
}

// rebuildLocked swaps in a new ring over the healthy set after changed's
// health flipped and bumps the membership epoch. Caller holds g.mu.
func (g *Gateway) rebuildLocked(changed *shard) {
	var members []string
	for addr, sh := range g.shards {
		if sh.healthy {
			members = append(members, addr)
		}
	}
	g.epoch++
	g.routeP.Store(&routeState{epoch: g.epoch, ring: BuildRing(members, g.cfg.Replicas)})
	g.memberChanges.Inc()
	g.shardsHealthy.Set(float64(len(members)))
	up := 0.0
	if changed.healthy {
		up = 1
	}
	changed.up.Set(up)
	g.refreshWelcomeLocked()
	g.cfg.Log.Info("shard membership changed",
		"shard", changed.addr, "healthy", changed.healthy,
		"fleet", len(members), "epoch", g.epoch)
}

// observeVersion records the model version a shard reported in its
// heartbeat echo — the live feed that keeps per-shard version tracking
// correct across hot swaps (the dial-time Welcome goes stale the moment
// a swap lands).
func (g *Gateway) observeVersion(addr string, v uint32) {
	if v == 0 {
		return // pre-registry shard; nothing to track
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	sh := g.shards[addr]
	if sh.live == v {
		return
	}
	sh.live = v
	sh.version.Set(float64(v))
	g.refreshWelcomeLocked()
	g.cfg.Log.Info("shard model version observed", "shard", addr, "version", v)
}

// refreshWelcomeLocked points the agent-facing Welcome template at the
// version most healthy shards report, so new agents see the fleet's
// version rather than whichever shard was probed last. A tie keeps the
// template's version when it is among the tied, else takes the older:
// pinning one shard of two moves nothing. Caller holds g.mu.
func (g *Gateway) refreshWelcomeLocked() {
	w := g.welcome.Load()
	if w == nil {
		return
	}
	counts := make(map[uint32]int)
	for _, sh := range g.shards {
		if sh.healthy && sh.live != 0 {
			counts[sh.live]++
		}
	}
	best := w.ModelVersion
	for v, n := range counts {
		if n > counts[best] || (n == counts[best] && best != w.ModelVersion && v < best) {
			best = v
		}
	}
	if best != w.ModelVersion {
		nw := *w
		nw.ModelVersion = best
		g.welcome.Store(&nw)
	}
}

// seedWelcomeLocked takes a newly dialed probe's Welcome as the agent
// template. A template that already exists keeps its version: which
// version agents see is refreshWelcomeLocked's to choose from the healthy
// shards' heartbeat echoes, and a re-dialed shard says nothing new about
// the fleet. Caller holds g.mu.
func (g *Gateway) seedWelcomeLocked(w wire.Welcome) {
	if old := g.welcome.Load(); old != nil {
		w.ModelVersion = old.ModelVersion
	}
	g.welcome.Store(&w)
	g.refreshWelcomeLocked()
}

// checkShard runs one health probe: ensure a probe connection exists
// (dial + handshake), then round-trip a Heartbeat under a deadline.
func (g *Gateway) checkShard(ctx context.Context, sh *shard) bool {
	g.mu.Lock()
	cli := sh.probe
	g.mu.Unlock()
	if cli == nil {
		dctx, cancel := context.WithTimeout(ctx, g.cfg.DialTimeout)
		c, err := session.DialOnce(dctx, sh.addr, "smartgw-health")
		cancel()
		if err != nil {
			g.healthFailures.Inc()
			return false
		}
		g.mu.Lock()
		sh.probe = c
		g.seedWelcomeLocked(c.Welcome())
		g.mu.Unlock()
		cli = c
	}
	probeStart := time.Now()
	var echoedVersion uint32
	ok := func() bool {
		if err := cli.Heartbeat(uint64(probeStart.UnixNano())); err != nil {
			return false
		}
		if err := cli.Flush(); err != nil {
			return false
		}
		cli.SetReadDeadline(time.Now().Add(g.cfg.DialTimeout))
		defer cli.SetReadDeadline(time.Time{})
		f, err := cli.Next()
		if err != nil {
			return false
		}
		hb, isHB := f.(wire.Heartbeat)
		if isHB {
			echoedVersion = hb.ModelVersion
		}
		return isHB
	}()
	if ok {
		sh.probeRTT.Set(time.Since(probeStart).Seconds())
		g.observeVersion(sh.addr, echoedVersion)
	}
	if !ok {
		g.healthFailures.Inc()
		cli.Close()
		g.mu.Lock()
		if sh.probe == cli {
			sh.probe = nil
		}
		g.mu.Unlock()
	}
	return ok
}

// checkAll probes every configured shard once and applies the outcomes.
func (g *Gateway) checkAll(ctx context.Context) {
	for _, addr := range g.cfg.Shards {
		if ctx.Err() != nil {
			return
		}
		g.setHealth(addr, g.checkShard(ctx, g.shards[addr]))
	}
}

// Listen binds the gateway's TCP listener and returns the bound address.
func (g *Gateway) Listen(addr string) (net.Addr, error) { return g.fe.Listen(addr) }

// Serve runs the health loop and accepts agent connections until ctx is
// cancelled, then drains: the listener closes, every agent connection's
// read side is shut, queued samples are forwarded, the shards' verdicts
// for them are relayed and flushed, and Serve returns nil. The first
// health pass runs synchronously so the earliest agents have a routable
// fleet.
func (g *Gateway) Serve(ctx context.Context) error {
	g.checkAll(ctx)
	hctx, stopHealth := context.WithCancel(ctx)
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		t := time.NewTicker(g.cfg.CheckInterval)
		defer t.Stop()
		for {
			select {
			case <-hctx.Done():
				return
			case <-t.C:
				g.checkAll(hctx)
			}
		}
	}()
	err := g.fe.Serve(ctx)
	stopHealth()
	<-healthDone
	g.mu.Lock()
	for _, sh := range g.shards {
		if sh.probe != nil {
			sh.probe.Close()
			sh.probe = nil
		}
	}
	g.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// agentWelcome answers agent handshakes with the fleet's Welcome template
// (captured from shard probes). With no shard ever seen the gateway
// cannot promise a feature width, so it refuses with CodeUnavailable and
// the agent retries later.
func (g *Gateway) agentWelcome() (wire.Welcome, *wire.Error) {
	w := g.welcome.Load()
	if w == nil {
		return wire.Welcome{}, &wire.Error{Code: wire.CodeUnavailable, Msg: "no healthy shard behind the gateway"}
	}
	return *w, nil
}

// forward builds one agent connection's forwarder; its teardown ends
// the connection's upstreams once the worker is done with them.
func (g *Gateway) forward(c *session.Conn, agent string) (session.Handler, func(), error) {
	f := &forwarder{g: g, c: c, agent: agent, ups: make(map[string]*upstream)}
	return f, f.shutdown, nil
}

// forwarder is the gateway's session.Handler: it relays each stream's
// micro-batches to the shard the hash ring picked. All methods and all
// fwdStream methods run on the engine's single worker goroutine; only the
// per-upstream relay goroutines run beside it.
type forwarder struct {
	g     *Gateway
	c     *session.Conn
	agent string
	ups   map[string]*upstream // worker-owned: live upstream per shard
}

// OpenStream routes the stream and announces it upstream. Routing
// failures do not error the session: the stream starts unplaced and every
// batch retries, so a brief full-fleet outage sheds samples, not
// connections.
func (f *forwarder) OpenStream(id uint32, app string) (session.Stream, error) {
	st := &fwdStream{f: f, id: id, app: app, key: RouteKey(f.agent, app)}
	st.ensureRoute()
	return st, nil
}

// RoundEnd flushes every live upstream's buffered frames, then the agent
// connection — one syscall per peer per round.
func (f *forwarder) RoundEnd() error {
	for addr, up := range f.ups {
		if up.dead.Load() {
			continue
		}
		if err := up.cli.Flush(); err != nil {
			up.fail()
			f.g.cfg.Log.Warn("upstream flush", "shard", addr, "err", err)
		}
	}
	return f.c.Flush()
}

// upstreamFor returns the live upstream connection to shard addr, dialing
// one (plus its relay goroutine) on first use or after a failure. A dead
// upstream's relay is waited for before it is replaced: the relay answers
// the closes it holds as it ends, and shutdown waits only for the relays
// still in ups, so the connection's teardown cannot outrun an answer.
func (f *forwarder) upstreamFor(addr string) (*upstream, error) {
	if up := f.ups[addr]; up != nil {
		if !up.dead.Load() {
			return up, nil
		}
		<-up.done
		delete(f.ups, addr)
	}
	g := f.g
	// DialOnce, not Dial: a refused connection must fail the placement
	// immediately (and refresh the ring via reportFailure) — the agent
	// retry-on-refused loop would park the engine worker for DialTimeout
	// behind a shard that is already gone.
	dctx, cancel := context.WithTimeout(context.Background(), g.cfg.DialTimeout)
	cli, err := session.DialOnce(dctx, addr, f.agent)
	cancel()
	if err != nil {
		return nil, err
	}
	cli.CountFlushes(g.upstreamFlushes) // cluster_upstream_flushes_total
	up := &upstream{
		f:      f,
		sh:     g.shards[addr],
		cli:    cli,
		closes: make(map[uint32][]closeState),
		done:   make(chan struct{}),
	}
	f.ups[addr] = up
	go up.relay()
	return up, nil
}

// shutdown half-closes every upstream once the worker is done with them
// and waits for the relays: each shard scores what it holds, flushes and
// closes within DialTimeout, and its verdicts and summaries reach the
// agent before the front end's final flush; a close it leaves unanswered
// gets a made-up summary. The closing flag keeps the relays' EOF from
// reading as a shard failure — an agent hanging up must not mark its
// shards unhealthy.
func (f *forwarder) shutdown() {
	deadline := time.Now().Add(f.g.cfg.DialTimeout)
	for _, up := range f.ups {
		up.closing.Store(true)
		up.cli.SetReadDeadline(deadline)
		if err := up.cli.CloseWrite(); err != nil {
			up.cli.Close() // a broken upstream has nothing left to deliver
		}
	}
	for _, up := range f.ups {
		<-up.done
	}
}

// summarize writes the agent's StreamSummary for one close of stream id;
// no other code writes one. sum is the shard's answer, which gains the
// samples forwarded to the stream's earlier placements, or nil when no
// answer will come, and then the summary is made up from the samples the
// gateway forwarded. Either way it carries the gateway-side shed. A
// move's suppressed close writes nothing.
func (f *forwarder) summarize(id uint32, cs closeState, sum *wire.StreamSummary) {
	if cs.suppress {
		return
	}
	if sum == nil {
		sum = &wire.StreamSummary{Stream: id, Samples: cs.sent}
		if w := f.g.welcome.Load(); w != nil {
			sum.ModelVersion = w.ModelVersion
		}
	} else {
		sum.Samples += cs.prior
	}
	sum.Shed += cs.shed
	f.c.WriteFrame(*sum)
}

// closeState is what one close of a stream needs to be answered: either
// its summary is suppressed (the stream drained to another shard
// mid-flight), or the gateway-side shed, the samples forwarded to the
// stream's earlier placements, and all the samples it forwarded.
type closeState struct {
	suppress bool
	shed     uint64
	prior    uint64
	sent     uint64
}

// upstream is one gateway→shard data connection shared by all streams of
// one agent connection that route to that shard, plus the relay goroutine
// carrying shard frames back to the agent.
type upstream struct {
	f       *forwarder
	sh      *shard
	cli     *session.Client
	dead    atomic.Bool
	closing atomic.Bool // deliberate local teardown, not a shard failure

	// closes queues, per stream id, the closes sent upstream and not yet
	// answered, oldest first: a move's close and the agent's close of one
	// id can both be outstanding, and the shard answers one connection's
	// closes in the order they were sent. It is nil once the relay has
	// ended and answered what it held.
	mu     sync.Mutex
	closes map[uint32][]closeState

	done chan struct{}
}

// retire marks the upstream dead and closes it, reporting whether this
// call did; its streams re-place on their next batch.
func (up *upstream) retire() bool {
	if !up.dead.CompareAndSwap(false, true) {
		return false
	}
	up.cli.Close()
	return true
}

// fail retires the upstream and marks the shard unhealthy; streams
// reroute on their next batch.
func (up *upstream) fail() {
	if up.retire() {
		up.f.g.reportFailure(up.sh.addr)
	}
}

// close queues cs as stream id's newest outstanding close and sends the
// CloseStream. The relay answers a queued close however the upstream
// ends; once the relay has ended, close queues and sends nothing and
// reports false.
func (up *upstream) close(id uint32, cs closeState) bool {
	up.mu.Lock()
	if up.closes == nil {
		up.mu.Unlock()
		return false
	}
	up.closes[id] = append(up.closes[id], cs)
	up.mu.Unlock()
	if err := up.cli.CloseStream(id); err != nil {
		up.fail()
	}
	return true
}

// popClose takes the oldest outstanding close of stream id; a summary no
// close asked for passes through unchanged.
func (up *upstream) popClose(id uint32) closeState {
	up.mu.Lock()
	defer up.mu.Unlock()
	q := up.closes[id]
	if len(q) == 0 {
		return closeState{}
	}
	if len(q) == 1 {
		delete(up.closes, id)
	} else {
		up.closes[id] = q[1:]
	}
	return q[0]
}

// relay carries shard frames back to the agent until the upstream ends,
// then retires it and answers every close still queued with a made-up
// summary. Only after that does it mark a failed shard down, so once
// cluster_shard_up reads 0 for a shard its relay's answers are written.
func (up *upstream) relay() {
	defer close(up.done)
	failed := up.pump()
	retired := up.retire()
	up.mu.Lock()
	unanswered := up.closes
	up.closes = nil
	up.mu.Unlock()
	for id, q := range unanswered {
		for _, cs := range q {
			up.f.summarize(id, cs, nil)
		}
	}
	up.f.c.Flush()
	if failed && retired {
		up.f.g.reportFailure(up.sh.addr)
	}
}

// pump relays shard frames until the upstream ends and reports whether
// it ended because the shard failed: a read error (a malformed frame
// among them) other than the agent connection's own teardown (EOF or the
// read deadline), or a draining shard. An idle reap ends only this
// connection, so the next batch re-dials the same shard. Verdicts pass
// through as the bytes the shard sent, a run at a time (counted per
// shard); every other frame is decoded, and stream summaries are
// summarized. Flushes batch: the agent writer flushes only when no more
// shard input is already buffered.
func (up *upstream) pump() (failed bool) {
	for {
		run, n, err := up.cli.VerdictRun()
		if err != nil {
			return !up.closing.Load()
		}
		if n > 0 {
			up.f.c.WriteRaw(run)
			up.cli.Discard(len(run))
			up.sh.relayed.Add(uint64(n))
		} else {
			f, err := up.cli.Next()
			if err != nil {
				return !up.closing.Load()
			}
			switch fr := f.(type) {
			case wire.StreamSummary:
				up.f.summarize(fr.Stream, up.popClose(fr.Stream), &fr)
			case wire.Heartbeat:
				// Echo of a keepalive; nothing to relay.
			case wire.Error:
				// A shard-side error is a fleet-operations event, not an agent
				// protocol event: log it and never forward it downstream.
				up.f.g.cfg.Log.Warn("upstream error frame", "shard", up.sh.addr, "code", fr.Code, "msg", fr.Msg)
				switch fr.Code {
				case wire.CodeDraining:
					return true
				case wire.CodeIdle:
					return false
				}
			}
		}
		if up.cli.Buffered() == 0 {
			up.f.c.Flush()
		}
	}
}

// fwdStream is one (agent, app) stream's routing state: which upstream it
// is placed on and under which membership epoch that placement was made.
type fwdStream struct {
	f     *forwarder
	id    uint32
	app   string
	key   string
	epoch uint64
	up    *upstream

	opened bool   // placed at least once (first placement counts as routed)
	sent   uint64 // samples forwarded, for summaries made up when no shard answers
	prior  uint64 // of sent, those forwarded to placements before the current one
}

// ensureRoute returns the stream's live upstream, (re)placing it when the
// stream is unplaced, its shard died, or the membership epoch moved. A
// membership change that keeps the stream on its shard just adopts the
// new epoch; a change that moves it drains the old placement (CloseStream
// upstream, its summary suppressed) and opens on the new shard. Returns
// nil when no healthy shard can take the stream.
func (st *fwdStream) ensureRoute() *upstream {
	g := st.f.g
	cur := g.route()
	if st.up != nil && st.epoch == cur.epoch && !st.up.dead.Load() {
		return st.up
	}
	for attempt := 0; attempt < 2; attempt++ {
		cur = g.route()
		addr := cur.ring.Route(st.key)
		if st.up != nil && !st.up.dead.Load() {
			if st.up.sh.addr == addr {
				st.epoch = cur.epoch
				return st.up
			}
			// Moved: close out the old placement and suppress its summary —
			// the agent gets exactly one summary, from the final shard,
			// which counts this placement's samples in prior.
			st.up.close(st.id, closeState{suppress: true})
			g.drained.Inc()
		}
		st.up = nil
		if addr == "" {
			st.epoch = cur.epoch
			return nil
		}
		up, err := st.f.upstreamFor(addr)
		if err != nil {
			g.reportFailure(addr) // refresh the ring, then retry once
			continue
		}
		if err := up.cli.OpenStream(st.id, st.app); err != nil {
			up.fail()
			continue
		}
		if st.opened {
			g.rerouted.Inc()
		} else {
			st.opened = true
		}
		up.sh.routed.Inc()
		st.up = up
		st.prior = st.sent
		st.epoch = cur.epoch
		return up
	}
	return nil
}

// Process forwards the batch to the stream's shard, rerouting and
// re-sending the whole batch once if the send hits a dead upstream. With
// no healthy shard the batch is dropped and counted; the agent
// connection survives. When the gateway traces, one sample per sampled
// batch gets a gateway-tier record attributing ring wait,
// routing/assembly and the upstream write.
func (st *fwdStream) Process(b session.Batch) error {
	g := st.f.g
	traceIdx, traceID, traced := g.cfg.Tracer.SampleBatch(b.Len())
	var sendStart time.Time
	if traced {
		sendStart = time.Now()
	}
	for attempt := 0; attempt < 2; attempt++ {
		up := st.ensureRoute()
		if up == nil {
			break
		}
		// SendBatch stamps each frame with the gateway's ingress time: the
		// shard subtracts it from its own ingress clock to attribute the
		// gateway→shard hop.
		if err := up.cli.SendBatch(st.id, b); err != nil {
			up.fail()
			continue
		}
		st.sent += uint64(b.Len())
		up.sh.forwarded.Add(uint64(b.Len()))
		if traced {
			st.capture(b, traceIdx, traceID, sendStart, up.sh.addr)
		}
		return nil
	}
	g.dropped.Add(uint64(b.Len()))
	return nil
}

// capture assembles the gateway-tier trace record for the sampled sample
// at batch index i: HopQueue is the ingress-ring wait, HopAssembly the
// drain→send grouping and routing, HopEmit the upstream write(s)
// (including any failover re-send). HopGateway, HopStage0 and HopScore
// stay zero — the matching shard-tier record owns those.
func (st *fwdStream) capture(b session.Batch, i int, traceID uint64, sendStart time.Time, addr string) {
	sendEnd := time.Now()
	rec := trace.Record{
		TraceID: traceID,
		Tier:    trace.TierGateway,
		App:     st.app,
		Shard:   addr,
		Stream:  st.id,
		Seq:     b.Seqs[i],
	}
	rec.Hops[trace.HopQueue] = max(b.DrainedAt.Sub(b.Ats[i]).Nanoseconds(), 0)
	rec.Hops[trace.HopAssembly] = max(sendStart.Sub(b.DrainedAt).Nanoseconds(), 0)
	rec.Hops[trace.HopEmit] = sendEnd.Sub(sendStart).Nanoseconds()
	for _, h := range rec.Hops {
		rec.TotalNanos += h
	}
	rec.StartNanos = sendEnd.UnixNano() - rec.TotalNanos
	st.f.g.cfg.Tracer.Add(rec)
}

// Close ends the stream. The close queue of the stream's upstream answers
// it with the shard's summary, or with one made up from the gateway's own
// accounting when the shard will not answer; an unplaced stream, or one
// whose upstream's relay has ended, gets the made-up summary here. Either
// way the summary's Samples + Shed is what the agent sent, less the
// samples dropped for want of a shard.
func (st *fwdStream) Close(shed uint64) error {
	cs := closeState{shed: shed, prior: st.prior, sent: st.sent}
	if st.up == nil || !st.up.close(st.id, cs) {
		st.f.summarize(st.id, cs, nil)
	}
	return nil
}
