package session

import (
	"fmt"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/drift"
	"twosmart/internal/monitor"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
	"twosmart/internal/workload"
)

// Generation is one servable model generation as the scoring handler
// binds it: the trained detector, its registry version, the optional
// drift monitor that observes every sample scored under it, and the
// optional stage-0 cascade. The Source callback returns the generation
// active *right now*; each stream captures the generation at open time
// (the hot-swap epoch model from DESIGN §11) and keeps it for life.
type Generation struct {
	Detector *core.Detector
	Version  int
	Drift    *drift.Monitor
	// Cascade, when non-nil, is the compiled stage-0 anomaly envelope:
	// samples scoring <= CascadeThreshold short-circuit with a benign
	// verdict (Stage = core.StageShortCircuit) and never reach the full
	// detector. Must cover the detector's exact feature width — the
	// caller's invariant (serve validates at model bind/swap time).
	Cascade *anomaly.Compiled
	// CascadeThreshold is the envelope's short-circuit threshold (serve
	// passes the envelope's calibrated Threshold).
	CascadeThreshold float64
}

// Emitter receives the scoring handler's output. Methods are called on
// the engine's worker goroutine, in arrival order within each stream.
type Emitter interface {
	// Verdicts delivers one scored chunk for stream id, bound to model
	// epoch version: parallel slices where verdicts[i]/scores[i]/events[i]
	// belong to the sample with client sequence seqs[i] received at
	// ats[i]. The slices are engine-owned and valid only during the call.
	Verdicts(id uint32, version int, seqs []uint32, ats []time.Time,
		verdicts []core.Verdict, scores []float64, events []monitor.Event) error
	// Summary delivers the closing account of a stream: the monitor's
	// session summary plus how many of the stream's samples the ingress
	// ring shed.
	Summary(id uint32, version int, sum monitor.Summary, shed uint64) error
	// Flush pushes buffered output to the transport; called once per
	// engine round (RoundEnd).
	Flush() error
}

// TapChunk is one scored chunk as handed to ScoringConfig.Tap: the
// stream's identity and model epoch plus parallel slices where
// Samples[i]/Verdicts[i]/Scores[i]/Events[i] belong to the sample
// received at Ats[i]. All slices are engine-owned and valid only during
// the Tap call — consumers copy what they keep.
type TapChunk struct {
	App      string
	Stream   uint32
	Version  int
	Ats      []time.Time
	Samples  [][]float64
	Verdicts []core.Verdict
	Scores   []float64
	Events   []monitor.Event
}

// scoreChunk caps how many samples of one stream's micro-batch are
// scored, tapped and emitted together. Each chunk is one trace-sampling
// decision and one Tap call.
const scoreChunk = 512

// ScoringConfig configures a Scoring handler (one per connection).
type ScoringConfig struct {
	// Source returns the model generation new streams should bind.
	// Required. Called once per stream open, on the worker goroutine.
	Source func() Generation
	// Emit receives verdicts, summaries and flushes. Required.
	Emit Emitter
	// Monitor tunes the per-stream smoothing and alarm hysteresis; its
	// Telemetry registry also receives the monitor_active_apps gauge.
	Monitor monitor.Config
	// Tap, when non-nil, observes every scored chunk after its verdicts
	// are computed — the shadow-scoring and sample-log hook. The chunk's
	// slices are engine-owned and valid only during the call.
	Tap func(TapChunk)
	// Tracer, when non-nil, samples scored chunks into end-to-end trace
	// records with per-hop attribution (gateway → ring wait → assembly →
	// score → emit). The unsampled path costs one atomic add per chunk.
	Tracer *trace.Tracer
	// Latency, when non-nil, receives a histogram exemplar (the traced
	// sample's end-to-end seconds keyed by trace ID) for every sampled
	// trace. The serve transport passes its verdict-latency histogram so
	// /metrics p99s link back to /debug/traces records.
	Latency telemetry.Histogram
	// Telemetry, when non-nil, receives the cascade_* metric families
	// (short-circuit / pass-through counts, per-stage nanos and sample
	// counts). Only touched on streams whose generation carries a
	// cascade, so a no-cascade server exposes no cascade families at all.
	Telemetry *telemetry.Registry
	// Hook, when non-nil (tests only), runs before every per-stream
	// scoring round; a slow hook makes load-shedding deterministic.
	Hook func()
}

// Scoring is the shard-role Handler: it captures each stream's model
// epoch at open time (compiling that generation's detector and building
// the stream's own monitor), and scores every micro-batch through the
// fused allocation-free path — one evaluation per sample for both its
// verdict and its smoothed-alarm update.
type Scoring struct {
	cfg ScoringConfig

	// active is monitor_active_apps; open counts this connection's
	// streams that are open, so Teardown can take them off the gauge.
	active telemetry.Gauge
	open   int

	// cascade instruments, created on the first stream whose generation
	// carries a cascade — a server that never runs one exposes no
	// cascade_* families at all.
	cm *cascadeMetrics
}

// cascadeInstruments returns the shared cascade_* instruments, creating
// them on first use.
func (s *Scoring) cascadeInstruments() *cascadeMetrics {
	if s.cm == nil {
		cm := newCascadeMetrics(s.cfg.Telemetry)
		s.cm = &cm
	}
	return s.cm
}

// cascadeMetrics caches the shared cascade_* instruments so the hot path
// never formats a metric name. All fields come from a *telemetry.Registry
// (nil registry yields valid no-op instruments) but are only incremented
// on streams that actually run a cascade.
type cascadeMetrics struct {
	short         telemetry.Counter // samples short-circuited by stage 0
	pass          telemetry.Counter // samples passed through to the full detector
	stage0Nanos   telemetry.Counter // wall nanos spent in the stage-0 envelope pass
	stage0Samples telemetry.Counter // samples the stage-0 pass scored
	stage1Nanos   telemetry.Counter // wall nanos spent in the full-detector pass
	stage1Samples telemetry.Counter // samples the full detector scored
}

func newCascadeMetrics(reg *telemetry.Registry) cascadeMetrics {
	return cascadeMetrics{
		short:         reg.Counter("cascade_short_total"),
		pass:          reg.Counter("cascade_pass_total"),
		stage0Nanos:   reg.Counter("cascade_stage0_nanos_total"),
		stage0Samples: reg.Counter("cascade_stage0_samples_total"),
		stage1Nanos:   reg.Counter("cascade_stage1_nanos_total"),
		stage1Samples: reg.Counter("cascade_stage1_samples_total"),
	}
}

// NewScoring validates the configuration and builds the handler.
func NewScoring(cfg ScoringConfig) (*Scoring, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("session: nil generation source")
	}
	if cfg.Emit == nil {
		return nil, fmt.Errorf("session: nil emitter")
	}
	if cfg.Latency == nil {
		cfg.Latency = telemetry.NopHistogram
	}
	if err := cfg.Monitor.Validate(); err != nil {
		return nil, err
	}
	return &Scoring{cfg: cfg, active: cfg.Monitor.Telemetry.Gauge("monitor_active_apps")}, nil
}

// OpenStream captures the stream's model epoch: it compiles the
// generation that is active right now and builds the stream's monitor
// over that same instance. A swap after this point only affects streams
// opened later.
func (s *Scoring) OpenStream(id uint32, app string) (Stream, error) {
	g := s.cfg.Source()
	det := g.Detector.Compile()
	mon, err := monitor.New(det, s.cfg.Monitor)
	if err != nil {
		return nil, err
	}
	st := &scoredStream{s: s, id: id, app: app, det: det, mon: mon,
		sum: monitor.Summary{App: app}, version: g.Version, drft: g.Drift}
	if g.Cascade != nil {
		st.env = g.Cascade
		st.threshold = g.CascadeThreshold
		st.cm = s.cascadeInstruments()
	}
	s.open++
	s.active.Add(1)
	return st, nil
}

// RoundEnd flushes the emitter's buffered output.
func (s *Scoring) RoundEnd() error { return s.cfg.Emit.Flush() }

// Teardown takes the streams still open when the connection ended
// (agent disconnect, idle reap, drain, worker error) off
// monitor_active_apps: their Close never runs. Call it once, after the
// engine worker exited.
func (s *Scoring) Teardown() {
	s.active.Add(-float64(s.open))
	s.open = 0
}

// scoredStream is one (connection, app) stream: its compiled detector,
// its smoothing monitor and session summary, plus the reusable scoring
// arenas. A stream is only ever touched by its engine's worker goroutine.
//
// det, version and drft are the stream's model epoch, captured from the
// active generation in OpenStream. A hot swap that lands mid-stream does
// not change them: samples already queued and samples still arriving on
// this stream score on the epoch's detector, and the Summary reports the
// epoch's version.
type scoredStream struct {
	s       *Scoring
	id      uint32
	app     string
	det     *core.CompiledDetector
	mon     *monitor.Monitor
	sum     monitor.Summary
	version int
	drft    *drift.Monitor

	// stage-0 cascade, captured with the epoch (nil = disabled): the
	// compiled envelope, its threshold, and the shared instruments.
	env       *anomaly.Compiled
	threshold float64
	cm        *cascadeMetrics

	// reusable scoring arenas, grown to the largest micro-batch seen
	verdicts []core.Verdict
	scores   []float64
	events   []monitor.Event

	// cascade pass-through scatter/gather arenas: indices of samples the
	// envelope passed onward, their gathered feature rows, and the
	// verdict/score slots the full detector writes before the scatter
	// back into the chunk arenas.
	passIdx      []int
	passSamples  [][]float64
	passVerdicts []core.Verdict
	passScores   []float64
}

// Process scores one pending micro-batch in chunks of at most
// scoreChunk samples through the fused compiled path and emits the
// verdict chunks.
func (st *scoredStream) Process(b Batch) error {
	s := st.s
	if s.cfg.Hook != nil {
		s.cfg.Hook()
	}
	pending := b.Len()
	if cap(st.verdicts) < pending {
		st.verdicts = make([]core.Verdict, pending)
		st.scores = make([]float64, pending)
		st.events = make([]monitor.Event, pending)
	}
	for off := 0; off < pending; off += scoreChunk {
		end := min(off+scoreChunk, pending)
		n := end - off
		// One sampling decision per chunk: a single atomic add when not
		// chosen, three time.Now calls bracketing score and emit when it is.
		// A cascade chunk is always bracketed — the per-stage cost model is
		// the feature — at two extra time.Now calls amortized over the chunk.
		traceIdx, traceID, traced := s.cfg.Tracer.SampleBatch(n)
		var scoreStart, stage0End time.Time
		verdicts := st.verdicts[:n]
		scores := st.scores[:n]
		events := st.events[:n]
		if st.env != nil {
			scoreStart = time.Now()
			var err error
			stage0End, err = st.cascadeChunk(verdicts, scores, b.Samples[off:end], scoreStart)
			if err != nil {
				return err
			}
		} else {
			if traced {
				scoreStart = time.Now()
			}
			if err := st.det.DetectScoredBatch(verdicts, scores, b.Samples[off:end]); err != nil {
				return err
			}
		}
		if err := st.mon.ObserveScoredBatch(events, scores); err != nil {
			return err
		}
		for _, ev := range events {
			st.sum.Add(ev)
		}
		if st.drft != nil {
			if err := st.drft.ObserveBatch(b.Samples[off:end]); err != nil {
				return err
			}
		}
		if s.cfg.Tap != nil {
			s.cfg.Tap(TapChunk{
				App:      st.app,
				Stream:   st.id,
				Version:  st.version,
				Ats:      b.Ats[off:end],
				Samples:  b.Samples[off:end],
				Verdicts: verdicts,
				Scores:   scores,
				Events:   events,
			})
		}
		var scoreEnd time.Time
		if traced {
			scoreEnd = time.Now()
		}
		if err := s.cfg.Emit.Verdicts(st.id, st.version, b.Seqs[off:end], b.Ats[off:end], verdicts, scores, events); err != nil {
			return err
		}
		if traced {
			st.capture(b, off+traceIdx, traceID, scoreStart, stage0End, scoreEnd)
		}
	}
	return nil
}

// cascadeChunk runs the stage-0 envelope over one chunk: samples inside
// the envelope (score <= threshold) get a benign short-circuit verdict in
// place; the rest are gathered, scored through the fused full-detector
// path, and scattered back. Returns the stage-0/stage-1 boundary
// timestamp for trace attribution. Verdict and malware-score slots for
// short-circuited samples are written directly (score 0: the envelope
// decided "clear benign", and the stream's EWMA smoothing should see
// exactly that evidence).
func (st *scoredStream) cascadeChunk(verdicts []core.Verdict, scores []float64, samples [][]float64, stage0Start time.Time) (time.Time, error) {
	st.passIdx = st.passIdx[:0]
	st.passSamples = st.passSamples[:0]
	for i, fv := range samples {
		if st.env.Score(fv) <= st.threshold {
			verdicts[i] = core.Verdict{
				PredictedClass: workload.Benign,
				Confidence:     1,
				Stage:          core.StageShortCircuit,
			}
			scores[i] = 0
		} else {
			st.passIdx = append(st.passIdx, i)
			st.passSamples = append(st.passSamples, fv)
		}
	}
	stage0End := time.Now()
	p := len(st.passIdx)
	if p > 0 {
		if cap(st.passVerdicts) < p {
			st.passVerdicts = make([]core.Verdict, len(samples))
			st.passScores = make([]float64, len(samples))
		}
		pv := st.passVerdicts[:p]
		ps := st.passScores[:p]
		if err := st.det.DetectScoredBatch(pv, ps, st.passSamples); err != nil {
			return stage0End, err
		}
		for j, i := range st.passIdx {
			verdicts[i] = pv[j]
			scores[i] = ps[j]
		}
	}
	stage1End := time.Now()

	cm := st.cm
	n := len(samples)
	cm.short.Add(uint64(n - p))
	cm.pass.Add(uint64(p))
	cm.stage0Nanos.Add(uint64(max64(stage0End.Sub(stage0Start).Nanoseconds(), 0)))
	cm.stage0Samples.Add(uint64(n))
	if p > 0 {
		cm.stage1Nanos.Add(uint64(max64(stage1End.Sub(stage0End).Nanoseconds(), 0)))
		cm.stage1Samples.Add(uint64(p))
	}
	return stage0End, nil
}

// capture assembles the end-to-end trace record for the sampled sample
// at batch index i and publishes it. The hops telescope over one
// interval — gateway ingress (or local ingress, for direct agents) →
// verdict handed to the emitter — so their sum equals TotalNanos by
// construction; only HopGateway crosses a process boundary and relies on
// wall clocks (clamped at zero against skew), every other hop is a
// monotonic same-process delta.
func (st *scoredStream) capture(b Batch, i int, traceID uint64, scoreStart, stage0End, scoreEnd time.Time) {
	s := st.s
	emitEnd := time.Now()
	at := b.Ats[i]
	rec := trace.Record{
		TraceID: traceID,
		Tier:    trace.TierShard,
		App:     st.app,
		Stream:  st.id,
		Seq:     b.Seqs[i],
	}
	if origin := b.Origins[i]; origin > 0 {
		if gw := at.UnixNano() - origin; gw > 0 {
			rec.Hops[trace.HopGateway] = gw
		}
	}
	rec.Hops[trace.HopQueue] = max64(b.DrainedAt.Sub(at).Nanoseconds(), 0)
	rec.Hops[trace.HopAssembly] = max64(scoreStart.Sub(b.DrainedAt).Nanoseconds(), 0)
	fullStart := scoreStart
	if !stage0End.IsZero() {
		// Cascade chunk: stage-0's envelope pass owns its own hop and the
		// score hop covers the remaining full-detector work. Without a
		// cascade the stage0 hop stays zero.
		rec.Hops[trace.HopStage0] = stage0End.Sub(scoreStart).Nanoseconds()
		fullStart = stage0End
	}
	rec.Hops[trace.HopScore] = scoreEnd.Sub(fullStart).Nanoseconds()
	rec.Hops[trace.HopEmit] = emitEnd.Sub(scoreEnd).Nanoseconds()
	for _, h := range rec.Hops {
		rec.TotalNanos += h
	}
	rec.StartNanos = emitEnd.UnixNano() - rec.TotalNanos
	s.cfg.Tracer.Add(rec)
	s.cfg.Latency.Exemplar(float64(rec.TotalNanos)/1e9, traceID)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Close emits the stream's session summary.
func (st *scoredStream) Close(shed uint64) error {
	st.s.open--
	st.s.active.Add(-1)
	return st.s.cfg.Emit.Summary(st.id, st.version, st.sum, shed)
}
