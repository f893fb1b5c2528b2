// Package trace implements sampled wide-event tracing for the serving
// fleet. One Record captures a single verdict's end-to-end journey with
// per-hop latency attribution: time spent inside the gateway (route +
// forward queue), waiting in the shard's ingress ring, micro-batch
// assembly, scoring, and verdict emission. Records land in a fixed-size
// ring behind one mutex and are exposed as JSON via Handler (mounted at
// /debug/traces by the cmd tools).
//
// Hot-path contract: sampling decisions cost one atomic add per scored
// chunk (not per sample) and the unsampled path performs zero heap
// allocations — pinned by BenchmarkObserveTraceSample and an
// AllocsPerRun test. A nil *Tracer is valid everywhere and disables
// tracing entirely, mirroring the nil-registry convention in
// internal/telemetry.
package trace

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"twosmart/internal/telemetry"
)

// Hop indexes one attributed latency segment inside Record.Hops.
type Hop int

// The hops of a verdict's journey, in pipeline order. Values are
// nanoseconds. In a shard-tier record the sum of all hops equals
// TotalNanos exactly: the hops telescope over one wall-clock interval
// (gateway ingress → verdict written). Gateway-tier records attribute
// only the hops the gateway itself owns (queue, assembly, emit) and
// leave the rest zero.
const (
	// HopGateway is gateway ingress → shard ingress: routing, the
	// forwarder's ring wait and the upstream TCP write, measured as the
	// wall-clock delta between the gateway stamping IngressNanos on the
	// forwarded Sample frame and the shard's read loop observing it.
	// Zero when the agent talked to the shard directly.
	HopGateway Hop = iota
	// HopQueue is time spent queued in the ingress ring before a worker
	// round drained it.
	HopQueue
	// HopAssembly is drain → score start: per-stream batch grouping and
	// the streams the round processed before this one.
	HopAssembly
	// HopStage0 is the stage-0 anomaly-envelope pass over the chunk: the
	// cascade's pre-filter scoring plus the short-circuit partition. Zero
	// when no cascade is configured and on gateway-tier records.
	HopStage0
	// HopScore is the fused detect+observe scoring pass over the chunk
	// (includes drift observation and the shadow tap offer). With a
	// cascade enabled this covers only the pass-through subset.
	HopScore
	// HopEmit is score end → verdict handed to the emitter (for a TCP
	// shard: encoded into the connection's write buffer).
	HopEmit

	// NumHops is the number of attributed segments.
	NumHops = 6
)

// HopNames maps Hop indices to their wire/JSON names.
var HopNames = [NumHops]string{"gateway", "queue", "assembly", "stage0", "score", "emit"}

func (h Hop) String() string {
	if h < 0 || int(h) >= NumHops {
		return "invalid"
	}
	return HopNames[h]
}

// Tier labels for Record.Tier.
const (
	TierShard   = "shard"   // record assembled by a scoring shard
	TierGateway = "gateway" // record assembled by the gateway forwarder
)

// Record is one sampled wide event: a single (stream, seq) sample's trip
// through the tier that captured it. Records are fixed-size (strings are
// headers into long-lived config data) so writing one into the ring does
// not allocate.
type Record struct {
	// TraceID is unique per tracer instance (monotonic). It links the
	// record to histogram exemplars captured for the same sample.
	TraceID uint64 `json:"trace_id"`
	// Tier is TierShard or TierGateway.
	Tier string `json:"tier"`
	// App is the workload/app name of the stream, when known.
	App string `json:"app,omitempty"`
	// Shard is the upstream shard address (gateway-tier records only).
	Shard string `json:"shard,omitempty"`
	// Stream and Seq identify the sample within the connection.
	Stream uint32 `json:"stream"`
	Seq    uint32 `json:"seq"`
	// StartNanos is the wall-clock unix-nano origin of the trace: the
	// gateway ingress stamp when present, otherwise local ingress.
	StartNanos int64 `json:"start_nanos"`
	// Hops holds per-segment durations in nanoseconds, indexed by Hop.
	Hops [NumHops]int64 `json:"hops"`
	// TotalNanos is the end-to-end duration covered by this record. For
	// shard-tier records it equals the sum of Hops by construction.
	TotalNanos int64 `json:"total_nanos"`
}

// Config sizes a Tracer.
type Config struct {
	// SampleEvery traces roughly one sample out of every SampleEvery
	// scored (at most one per scored chunk). <= 0 disables tracing: New
	// returns nil, which every method accepts.
	SampleEvery int
	// Depth is the trace ring capacity: the ring keeps the newest Depth
	// records. Defaults to 256.
	Depth int
}

// Tracer samples wide-event records into a fixed-size ring. All methods
// are safe for concurrent use; all are no-ops on a nil receiver.
type Tracer struct {
	every uint64
	ctr   atomic.Uint64 // samples offered via SampleBatch
	ids   atomic.Uint64 // trace-ID allocator

	mu    sync.Mutex
	next  int      // ring slot the next Add overwrites
	slots []Record // zero TraceID = never written
}

// New builds a Tracer, or returns nil (tracing disabled) when
// cfg.SampleEvery <= 0.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		return nil
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = 256
	}
	return &Tracer{every: uint64(cfg.SampleEvery), slots: make([]Record, depth)}
}

// SampleEvery reports the configured sampling period (0 when t is nil).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.every)
}

// SampleBatch advances the sample counter by n (one scored chunk) and
// reports whether one of those n samples crosses a sampling boundary.
// When it does, offset is the index of the chosen sample within the
// chunk and id is a fresh trace ID. At most one sample per chunk is
// chosen even if n spans several boundaries — sampling is a rate, not
// an exact stride. The not-chosen path costs one atomic add and
// allocates nothing.
func (t *Tracer) SampleBatch(n int) (offset int, id uint64, ok bool) {
	if t == nil || n <= 0 {
		return 0, 0, false
	}
	end := t.ctr.Add(uint64(n))
	start := end - uint64(n)
	next := (start/t.every + 1) * t.every // first boundary after start
	if next > end {
		return 0, 0, false
	}
	return int(next - start - 1), t.ids.Add(1), true
}

// Add publishes one record into the ring, overwriting the oldest entry.
// It may wait for one Snapshot copy of at most Depth records: Add runs at
// most once per scored chunk, so the ring's one mutex is not contended.
func (t *Tracer) Add(r Record) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slots[t.next] = r
	t.next = (t.next + 1) % len(t.slots)
	t.mu.Unlock()
}

// Snapshot copies the records in the ring (unordered). Safe to call while
// scoring continues.
func (t *Tracer) Snapshot() []Record {
	if t == nil {
		return nil
	}
	out := make([]Record, 0, len(t.slots))
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.slots {
		if r.TraceID != 0 {
			out = append(out, r)
		}
	}
	return out
}

// Dump is the JSON document served by Handler.
type Dump struct {
	SampleEvery int      `json:"sample_every"`
	Depth       int      `json:"depth"`
	HopNames    []string `json:"hop_names"`
	Records     []Record `json:"records"`
}

// DumpState snapshots the tracer into a serializable Dump. Valid on a
// nil tracer (empty dump).
func (t *Tracer) DumpState() Dump {
	d := Dump{HopNames: HopNames[:], Records: []Record{}}
	if t == nil {
		return d
	}
	d.SampleEvery = int(t.every)
	d.Depth = len(t.slots)
	if recs := t.Snapshot(); recs != nil {
		d.Records = recs
	}
	return d
}

// Handler serves the ring contents as JSON, shaped as Dump. Mounted at
// /debug/traces by the serving tools. Works on a nil tracer.
func (t *Tracer) Handler() telemetry.Handler {
	return func(w *telemetry.Response, _ *telemetry.Request) {
		w.SetContentType("application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.DumpState())
	}
}
