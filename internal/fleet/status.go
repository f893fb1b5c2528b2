package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"twosmart/internal/trace"
)

// Role classifies a scraped node by the metric families it exports.
type Role string

const (
	RoleGateway Role = "gateway" // exports cluster_* families
	RoleShard   Role = "shard"   // exports serve_* families
	RoleUnknown Role = "unknown"
)

// detectRole classifies a scrape: a gateway exports cluster_* families,
// a shard serve_*. A node exporting both (not a topology we build) is
// reported as a gateway, its distinguishing tier.
func detectRole(m *Metrics) Role {
	role := RoleUnknown
	for name := range m.Types {
		if strings.HasPrefix(name, "cluster_") {
			return RoleGateway
		}
		if strings.HasPrefix(name, "serve_") {
			role = RoleShard
		}
	}
	return role
}

// ShardStatus is one scoring shard's merged view over the window.
type ShardStatus struct {
	Addr         string  `json:"addr"`
	Model        string  `json:"model,omitempty"`
	ModelVersion string  `json:"model_version,omitempty"`
	Verdicts     float64 `json:"verdicts"`     // verdicts scored in the window
	VerdictRate  float64 `json:"verdict_rate"` // verdicts/s over the window
	ShedRate     float64 `json:"shed_rate"`    // shed samples/s over the window
	P99          float64 `json:"p99_seconds"`  // verdict latency p99 over the window, 0 when idle
	// Divergence is the shadow scorer's verdict disagreement rate over
	// the window (Δshadow_disagreements_total / Δshadow_observed_total),
	// -1 when the shard runs no shadow or compared nothing in the window.
	Divergence float64 `json:"shadow_divergence"`
	// NonFinite counts the NaN/±Inf series the two scrapes skipped.
	NonFinite  int  `json:"nonfinite_series"`
	DriftAlert bool `json:"drift_alert"`
	// Drift is the drift recommendation: "retrain" when the monitor's
	// alert gauge is raised, "steady" when present and clear, "n/a"
	// when the shard runs without a drift reference.
	Drift string `json:"drift"`
	// Rollout is the shard's rollout role: "canary" while the registry
	// pin table targets it (serve_rollout_pinned=1), "active" when it
	// follows the promoted version, "" for a shard without -shard-id
	// (the gauge is absent).
	Rollout      string `json:"rollout,omitempty"`
	TraceCount   int    `json:"trace_count"`
	TraceDropped uint64 `json:"trace_dropped"`
	// Cascade mirrors the node's cascade_* families: absent entirely when
	// the node runs no stage-0 cascade.
	Cascade *CascadeStatus `json:"cascade,omitempty"`
}

// CascadeStatus is one node's stage-0 cascade view: what fraction of its
// traffic the envelope short-circuited and what the envelope pass costs
// per sample. Window rates are preferred; with no window traffic the
// lifetime totals stand in.
type CascadeStatus struct {
	ShortFraction float64 `json:"short_fraction"`
	Stage0PerSamp float64 `json:"stage0_ns_per_sample"`
	ShortTotal    float64 `json:"short_total"`
	PassTotal     float64 `json:"pass_total"`
}

// cascadeStatus extracts the cascade section from a scrape pair, or nil
// when the node exposes no cascade families (cascade disabled: the
// instruments are created lazily on both tiers).
func cascadeStatus(before, after *Metrics) *CascadeStatus {
	if _, ok := after.Get("cascade_stage0_samples_total"); !ok {
		return nil
	}
	cs := &CascadeStatus{}
	cs.ShortTotal, _ = after.Get("cascade_short_total")
	cs.PassTotal, _ = after.Get("cascade_pass_total")
	short := Delta(before, after, "cascade_short_total")
	pass := Delta(before, after, "cascade_pass_total")
	if short+pass == 0 {
		// Quiet window: fall back to lifetime totals.
		short, pass = cs.ShortTotal, cs.PassTotal
	}
	if tot := short + pass; tot > 0 {
		cs.ShortFraction = short / tot
	}
	nanos := Delta(before, after, "cascade_stage0_nanos_total")
	samples := Delta(before, after, "cascade_stage0_samples_total")
	if samples == 0 {
		nanos, _ = after.Get("cascade_stage0_nanos_total")
		samples, _ = after.Get("cascade_stage0_samples_total")
	}
	if samples > 0 {
		cs.Stage0PerSamp = nanos / samples
	}
	return cs
}

// GatewayShard is the gateway's per-upstream view.
type GatewayShard struct {
	Shard       string  `json:"shard"`
	Up          bool    `json:"up"`
	ForwardRate float64 `json:"forward_rate"` // samples forwarded/s over the window
	RelayRate   float64 `json:"relay_rate"`   // verdicts relayed/s over the window
	ProbeRTT    float64 `json:"probe_rtt_seconds"`
	Routed      float64 `json:"streams_routed_total"`
	// ModelVersion is the registry version the shard last reported in a
	// heartbeat echo (0 before the first probe or outside a registry).
	ModelVersion int `json:"model_version,omitempty"`
}

// GatewayStatus is one gateway's merged view over the window.
type GatewayStatus struct {
	Addr          string         `json:"addr"`
	ShardsHealthy int            `json:"shards_healthy"`
	Reroutes      float64        `json:"streams_rerouted_total"`
	RerouteRate   float64        `json:"reroute_rate"`
	Shards        []GatewayShard `json:"shards"`
	// NonFinite counts the NaN/±Inf series the two scrapes skipped.
	NonFinite    int    `json:"nonfinite_series"`
	TraceCount   int    `json:"trace_count"`
	TraceDropped uint64 `json:"trace_dropped"`
}

// NodeError records a node that could not be scraped.
type NodeError struct {
	Addr string `json:"addr"`
	Err  string `json:"err"`
}

// TraceView is one captured record tagged with the node it came from.
type TraceView struct {
	Node string `json:"node"`
	trace.Record
}

// Status is the merged fleet view smartctl status renders.
type Status struct {
	Window   float64         `json:"window_seconds"`
	Gateways []GatewayStatus `json:"gateways"`
	Shards   []ShardStatus   `json:"shards"`
	Errors   []NodeError     `json:"errors,omitempty"`
	// Slowest holds the slowest captured traces across the fleet,
	// descending by total duration. Shard-tier records are end-to-end;
	// gateway-tier records cover only the gateway's own hops.
	Slowest []TraceView `json:"slowest_traces"`
}

// CollectConfig parameterizes CollectStatus.
type CollectConfig struct {
	// Window is how long to wait between the two scrapes that anchor
	// the rate deltas. Defaults to 2s.
	Window time.Duration
	// Top bounds the slowest-traces list. Defaults to 5.
	Top int
	// Client is the HTTP client used for every fetch. Defaults to one
	// with a 5s timeout.
	Client *http.Client
}

// CollectStatus scrapes every addr's /metrics twice, Window apart, plus
// /debug/traces once, and merges the results. Per-node scrape failures
// land in Status.Errors instead of failing the collection; the returned
// error is non-nil only when no node could be scraped at all.
func CollectStatus(ctx context.Context, addrs []string, cfg CollectConfig) (*Status, error) {
	if cfg.Window <= 0 {
		cfg.Window = 2 * time.Second
	}
	if cfg.Top <= 0 {
		cfg.Top = 5
	}

	before := scrapeAll(ctx, cfg.Client, addrs)
	select {
	case <-time.After(cfg.Window):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	after := scrapeAll(ctx, cfg.Client, addrs)

	st := &Status{Window: cfg.Window.Seconds()}
	sec := cfg.Window.Seconds()
	for _, addr := range addrs {
		a := after[addr]
		if a.err != nil {
			st.Errors = append(st.Errors, NodeError{Addr: addr, Err: a.err.Error()})
			continue
		}
		// Rates need both scrapes: zero rates would show a busy node
		// as idle.
		b := before[addr]
		if b.err != nil {
			st.Errors = append(st.Errors, NodeError{Addr: addr, Err: "first scrape: " + b.err.Error()})
			continue
		}
		dump, derr := fetchTraces(ctx, cfg.Client, addr)
		if derr != nil {
			dump = &trace.Dump{}
		}
		for _, r := range dump.Records {
			st.Slowest = append(st.Slowest, TraceView{Node: addr, Record: r})
		}
		switch detectRole(a.metrics) {
		case RoleGateway:
			st.Gateways = append(st.Gateways, gatewayStatus(addr, b.metrics, a.metrics, sec, dump))
		case RoleShard:
			st.Shards = append(st.Shards, shardStatus(addr, b.metrics, a.metrics, sec, dump))
		default:
			st.Errors = append(st.Errors, NodeError{Addr: addr, Err: "exports neither cluster_* nor serve_* metrics"})
		}
	}
	if len(st.Gateways) == 0 && len(st.Shards) == 0 {
		return st, fmt.Errorf("fleet: no node of %d could be scraped", len(addrs))
	}
	sort.Slice(st.Slowest, func(i, j int) bool { return st.Slowest[i].TotalNanos > st.Slowest[j].TotalNanos })
	if len(st.Slowest) > cfg.Top {
		st.Slowest = st.Slowest[:cfg.Top]
	}
	return st, nil
}

func shardStatus(addr string, before, after *Metrics, sec float64, dump *trace.Dump) ShardStatus {
	s := ShardStatus{
		Addr:         addr,
		Verdicts:     Delta(before, after, "serve_verdicts_total"),
		ShedRate:     Delta(before, after, "serve_shed_total") / sec,
		P99:          DeltaQuantile(before, after, "serve_verdict_latency_seconds", 0.99),
		Divergence:   -1,
		NonFinite:    before.NonFinite + after.NonFinite,
		TraceCount:   len(dump.Records),
		TraceDropped: dump.Dropped,
	}
	s.VerdictRate = s.Verdicts / sec
	if info, ok := after.ActiveModel(); ok {
		s.Model = info.Label("model")
		s.ModelVersion = info.Label("version")
	}
	if observed := Delta(before, after, "shadow_observed_total"); observed > 0 {
		s.Divergence = Delta(before, after, "shadow_disagreements_total") / observed
	}
	if alert, ok := after.Get("drift_alert"); !ok {
		s.Drift = "n/a"
	} else if alert >= 1 {
		s.DriftAlert = true
		s.Drift = "retrain"
	} else {
		s.Drift = "steady"
	}
	if pinned, ok := after.Get("serve_rollout_pinned"); ok {
		if pinned >= 1 {
			s.Rollout = "canary"
		} else {
			s.Rollout = "active"
		}
	}
	s.Cascade = cascadeStatus(before, after)
	return s
}

func gatewayStatus(addr string, before, after *Metrics, sec float64, dump *trace.Dump) GatewayStatus {
	g := GatewayStatus{
		Addr:         addr,
		NonFinite:    before.NonFinite + after.NonFinite,
		TraceCount:   len(dump.Records),
		TraceDropped: dump.Dropped,
	}
	if v, ok := after.Get("cluster_shards_healthy"); ok {
		g.ShardsHealthy = int(v)
	}
	g.Reroutes, _ = after.Get("cluster_streams_rerouted_total")
	g.RerouteRate = Delta(before, after, "cluster_streams_rerouted_total") / sec
	for _, up := range after.Family("cluster_shard_up") {
		shard := up.Label("shard")
		if shard == "" {
			continue
		}
		gs := GatewayShard{
			Shard:       shard,
			Up:          up.Value >= 1,
			ForwardRate: Delta(before, after, "cluster_samples_forwarded_total", "shard", shard) / sec,
			RelayRate:   Delta(before, after, "cluster_verdicts_relayed_total", "shard", shard) / sec,
		}
		gs.ProbeRTT, _ = after.Get("cluster_probe_rtt_seconds", "shard", shard)
		gs.Routed, _ = after.Get("cluster_streams_routed_total", "shard", shard)
		if v, ok := after.Get("cluster_shard_model_version", "shard", shard); ok {
			gs.ModelVersion = int(v)
		}
		g.Shards = append(g.Shards, gs)
	}
	sort.Slice(g.Shards, func(i, j int) bool { return g.Shards[i].Shard < g.Shards[j].Shard })
	return g
}

type result struct {
	metrics *Metrics
	err     error
}

// scrapeAll fetches /metrics from every addr concurrently.
func scrapeAll(ctx context.Context, client *http.Client, addrs []string) map[string]result {
	out := make(map[string]result, len(addrs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			m, err := FetchMetrics(ctx, client, addr)
			mu.Lock()
			out[addr] = result{metrics: m, err: err}
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	return out
}

// get fetches addr+path; a nil client gets a 5s timeout default.
func get(ctx context.Context, client *http.Client, addr, path string) (*http.Response, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return resp, nil
}

// FetchMetrics scrapes and parses one node's /metrics endpoint. addr may
// be a bare host:port (http:// is assumed). A nil client gets a 5s
// timeout default. The rollout controller polls the canary's live model
// generation with it.
func FetchMetrics(ctx context.Context, client *http.Client, addr string) (*Metrics, error) {
	resp, err := get(ctx, client, addr, "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ParseMetrics(resp.Body)
}

// fetchTraces fetches a node's /debug/traces dump. A node without the
// endpoint (tracing disabled or an older build) is not an error to the
// caller — they get an empty dump.
func fetchTraces(ctx context.Context, client *http.Client, addr string) (*trace.Dump, error) {
	resp, err := get(ctx, client, addr, "/debug/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var d trace.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return nil, fmt.Errorf("fleet: decoding %s/debug/traces: %w", addr, err)
	}
	return &d, nil
}
