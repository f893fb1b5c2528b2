// Package serve is the shard tier of the streaming detection service:
// it scores per-app HPC sample streams from many agents through the
// compiled allocation-free inference path and pushes verdict frames
// back over the internal/wire protocol.
//
// The connection lifecycle — accept, handshake, read loop, bounded
// drop-oldest ingress ring, adaptive micro-batch worker, verdict frames,
// idle reaping and graceful drain — is internal/session's front end,
// shared with the gateway tier (internal/cluster). This package supplies
// only the shard's policy: the Welcome names the active model, Heartbeat
// echoes carry the live model version, each connection scores through
// session.Scoring on its own worker, and IdleTimeout reaps silent
// agents. Metrics land in the serve_* families.
//
// Zero-downtime model swap: the server holds the active model behind an
// atomic pointer. New and Swap admit a Model only through one bind,
// which validates it against the served width and builds, once, the
// generation streams capture. Each stream binds the generation that was
// active when it opened — it scores on its connection's compiled
// instance of that generation's detector and reports that generation's
// version in its StreamSummary — so Swap never
// touches a stream in flight; only streams opened after the swap score
// with the new model. Drift monitoring is the exception: the active
// generation's monitor observes every scored sample, whichever
// generation scored it. cmd/smartserve triggers Swap from one loop that
// follows the registry on SIGHUP and -watch polls.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/drift"
	"twosmart/internal/monitor"
	"twosmart/internal/persist"
	"twosmart/internal/samplelog"
	"twosmart/internal/session"
	"twosmart/internal/shadow"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
	"twosmart/internal/wire"
)

// Config configures a streaming detection server.
type Config struct {
	// Model is the initial model generation. Its Detector is required and
	// fixes the feature width the server enforces for life.
	Model Model
	// Monitor tunes the per-stream smoothing and alarm hysteresis.
	Monitor monitor.Config
	// QueueDepth bounds each connection's ingress ring; beyond it the
	// oldest queued samples are shed (default 4096).
	QueueDepth int
	// IdleTimeout, when positive, reaps connections whose agents send no
	// frame for that long: the read side is torn down, queued samples are
	// still scored and flushed, an Error{CodeIdle} notice is sent, and
	// serve_conns_reaped_total is incremented. Heartbeat frames reset the
	// clock, so a live-but-quiet agent stays connected by probing. Zero
	// disables reaping.
	IdleTimeout time.Duration
	// Telemetry, when non-nil, receives the serve_* metric families and
	// the monitor layer's per-app instruments. Nil disables them.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, samples scored chunks into end-to-end trace
	// records (internal/trace): per-hop attribution from gateway ingress
	// (wire.Sample.IngressNanos, when stamped) through ring wait, batch
	// assembly, scoring and verdict emission. Nil disables tracing.
	Tracer *trace.Tracer
	// SampleLog, when non-nil, records every scored sample (features,
	// verdict, score, model version) to the durable sample log. Append
	// copies and never blocks — a slow log disk sheds records, it cannot
	// stall verdicts. The caller keeps ownership and Closes it after
	// Serve returns.
	SampleLog *samplelog.Writer
	// Shadow, when non-nil, re-scores every sample the live path scored
	// with a candidate model, off the hot path, so an operator can measure
	// the candidate's divergence on real traffic before promoting it. It
	// must be of the served width. The caller keeps ownership and Closes
	// it after Serve returns to collect the final report.
	Shadow *shadow.Shadow
	// Log receives connection lifecycle events (default slog.Default).
	Log *slog.Logger
}

func (c Config) fill() (Config, error) {
	if c.Model.Detector == nil {
		return c, errors.New("serve: nil detector")
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4096
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("serve: queue depth %d below 1", c.QueueDepth)
	}
	if c.IdleTimeout < 0 {
		return c, fmt.Errorf("serve: negative idle timeout %s", c.IdleTimeout)
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	return c, nil
}

// Model is one servable model generation: the detector plus its registry
// identity, optional drift monitor and optional stage-0 envelope. The
// server swaps generations atomically; streams bind the generation active
// at open time.
type Model struct {
	// Detector is the trained model. A connection compiles it when a
	// stream opens under it, and the connection's next streams opened
	// under it share that instance; a swap back to it from another
	// detector compiles it again. Required.
	Detector *core.Detector
	// Version is the registry version (0 outside a registry), echoed in
	// Welcome and StreamSummary frames.
	Version int
	// Name is the display name advertised in the Welcome frame (default
	// "detector"; Swap gives a nameless model the initial model's name).
	Name string
	// Drift, when non-nil, is the generation's training distribution
	// monitor. While the generation is active it observes every scored
	// sample, whichever generation scored it: drift compares live traffic
	// with the active model. It must be safe for concurrent use
	// (drift.Monitor is).
	Drift *drift.Monitor
	// Envelope, when non-nil, is the generation's stage-0 anomaly
	// envelope; streams binding the generation run the cascade at its
	// calibrated Threshold: samples inside the envelope short-circuit with
	// a benign verdict before the full detector runs. Models without one
	// serve with the cascade off.
	Envelope *anomaly.Envelope

	// gen is what streams capture at open, built once by bind.
	gen session.Generation
}

// bind validates m for a server whose samples are width features wide —
// detector, drift monitor and envelope must all match it — defaults its
// name, and builds the stream generation, compiling the envelope once.
func (m *Model) bind(width int) error {
	if m.Detector == nil {
		return errors.New("serve: nil detector")
	}
	if n := m.Detector.NumFeatures(); n != width {
		return fmt.Errorf("serve: model expects %d features, serving %d", n, width)
	}
	if m.Drift != nil && m.Drift.NumFeatures() != width {
		return fmt.Errorf("serve: drift monitor covers %d features, serving %d", m.Drift.NumFeatures(), width)
	}
	m.gen = session.Generation{Detector: m.Detector, Version: m.Version}
	if env := m.Envelope; env != nil {
		if err := env.Validate(); err != nil {
			return fmt.Errorf("serve: anomaly envelope: %w", err)
		}
		if env.NumFeatures() != width {
			return fmt.Errorf("serve: anomaly envelope covers %d features, serving %d", env.NumFeatures(), width)
		}
		m.gen.Cascade = env.Compile()
		m.gen.CascadeThreshold = env.Threshold
	}
	if m.Name == "" {
		m.Name = "detector"
	}
	return nil
}

// Server serves one trained detector over the wire protocol.
type Server struct {
	cfg         Config
	numFeatures int
	fe          *session.Frontend

	active atomic.Pointer[Model]

	// scoreHook, when set (tests only), runs before every per-stream
	// scoring round; a slow hook makes load-shedding deterministic.
	scoreHook func()

	swaps   telemetry.Counter
	latency telemetry.Histogram
}

// New validates the configuration and builds a server. Call Listen then
// Serve.
func New(cfg Config) (*Server, error) {
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	// Surface monitor config errors now, not on the first connection.
	if err := filled.Monitor.Validate(); err != nil {
		return nil, err
	}
	n := filled.Model.Detector.NumFeatures()
	if n > wire.MaxFeatures {
		return nil, fmt.Errorf("serve: model expects %d features, above the wire limit %d", n, wire.MaxFeatures)
	}
	if err := filled.Model.bind(n); err != nil {
		return nil, err
	}
	if sh := filled.Shadow; sh != nil && sh.NumFeatures() != n {
		return nil, fmt.Errorf("serve: shadow model expects %d features, serving %d", sh.NumFeatures(), n)
	}
	reg := filled.Telemetry
	s := &Server{
		cfg:         filled,
		numFeatures: n,
		swaps:       reg.Counter("serve_model_swaps_total"),
		latency:     reg.Histogram("serve_verdict_latency_seconds", telemetry.LatencyBuckets),
	}
	s.fe = session.NewFrontend(session.Tier{
		Welcome:     s.welcome,
		Heartbeat:   s.heartbeat,
		NewHandler:  s.newHandler,
		QueueDepth:  filled.QueueDepth,
		IdleTimeout: filled.IdleTimeout,
		Metrics: session.Metrics{
			ConnsActive: reg.Gauge("serve_connections_active"),
			ConnsTotal:  reg.Counter("serve_connections_total"),
			ConnsReaped: reg.Counter("serve_conns_reaped_total"),
			Samples:     reg.Counter("serve_samples_total"),
			Shed:        reg.Counter("serve_shed_total"),
			ProtoErrs:   reg.Counter("serve_protocol_errors_total"),
			BatchSize:   reg.Histogram("serve_batch_size", session.BatchSizeBuckets),
			Verdicts:    reg.Counter("serve_verdicts_total"),
			Latency:     s.latency,
			Flushes:     reg.Counter("serve_flushes_total"),
		},
		Log: filled.Log,
	})
	initial := filled.Model
	s.active.Store(&initial)
	s.setModelInfo(nil, &initial)
	return s, nil
}

// NumFeatures returns the feature width the served model expects.
func (s *Server) NumFeatures() int { return s.numFeatures }

// ActiveModel returns the generation new streams currently bind.
func (s *Server) ActiveModel() Model { return *s.active.Load() }

// Swap atomically promotes a new model generation: streams opened from
// now on score on m.Detector and report m.Version, while streams already
// in flight — including samples still queued for them — finish on the
// generation they opened with. Its cost beyond the pointer store is one
// compile of m.Detector per connection that opens a stream under it. The replacement must keep the feature
// width: connected agents were told the width in their Welcome and the
// read loop enforces it per sample, so changing it would invalidate
// every live connection.
func (s *Server) Swap(m Model) error {
	if m.Name == "" {
		m.Name = s.cfg.Model.Name
	}
	if err := m.bind(s.numFeatures); err != nil {
		return err
	}
	old := s.active.Swap(&m)
	s.swaps.Inc()
	s.setModelInfo(old, &m)
	s.cfg.Log.Info("model swapped",
		"from", old.Name, "from_version", old.Version,
		"to", m.Name, "to_version", m.Version)
	return nil
}

// setModelInfo keeps the serve_model_info labeled gauge family pointing
// at exactly one generation: the active one is 1, the demoted one 0.
func (s *Server) setModelInfo(old, cur *Model) {
	reg := s.cfg.Telemetry
	if !reg.Enabled() {
		return
	}
	if old != nil {
		reg.Gauge(modelInfoName(old)).Set(0)
	}
	reg.Gauge(modelInfoName(cur)).Set(1)
}

func modelInfoName(m *Model) string {
	name := telemetry.Label("serve_model_info", "model", m.Name)
	return telemetry.Label(name, "version", strconv.Itoa(m.Version))
}

// Listen binds the server's TCP listener and returns the bound address
// (useful with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) { return s.fe.Listen(addr) }

// Serve accepts and handles connections until ctx is cancelled, then
// drains gracefully: the listener closes, every connection's read side is
// shut, in-flight batches are scored and flushed, and Serve returns nil.
// A listener failure other than the drain close is returned as an error.
func (s *Server) Serve(ctx context.Context) error {
	if err := s.fe.Serve(ctx); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// welcome answers every handshake with the active model.
func (s *Server) welcome() (wire.Welcome, *wire.Error) {
	am := s.active.Load()
	return wire.Welcome{
		Proto:        wire.ProtoVersion,
		ModelFormat:  persist.FormatVersion,
		ModelVersion: uint32(am.Version),
		NumFeatures:  uint16(s.numFeatures),
		Model:        am.Name,
	}, nil
}

// heartbeat stamps the live serving version on the echo: probing
// gateways use heartbeats as their version feed across hot swaps (the
// dial-time Welcome goes stale).
func (s *Server) heartbeat(hb wire.Heartbeat) wire.Heartbeat {
	hb.ModelVersion = uint32(s.active.Load().Version)
	return hb
}

// newHandler scores one connection's streams, each bound to the model
// generation active when it opens; its teardown takes the streams still
// open at disconnect off monitor_active_apps.
func (s *Server) newHandler(c *session.Conn, _ string) (session.Handler, func(), error) {
	h, err := session.NewScoring(session.ScoringConfig{
		Source:    func() session.Generation { return s.active.Load().gen },
		Emit:      c,
		Monitor:   s.cfg.Monitor,
		Tap:       s.tap,
		Tracer:    s.cfg.Tracer,
		Latency:   s.latency,
		Telemetry: s.cfg.Telemetry,
		Hook:      s.scoreHook,
	})
	if err != nil {
		return nil, nil, err
	}
	return h, h.Teardown, nil
}

// tap feeds every scored chunk to the active generation's drift monitor
// and offers it to the shadow scorer and the durable sample log,
// if configured — the last two off the hot path: each copies what it
// keeps and never blocks.
func (s *Server) tap(ch session.TapChunk) {
	if dm := s.active.Load().Drift; dm != nil {
		// ObserveBatch fails only on a sample of another width, which
		// cannot reach here: bind matched the monitor to the served width,
		// and the read loop enforces that width on every sample.
		_ = dm.ObserveBatch(ch.Samples)
	}
	if sh := s.cfg.Shadow; sh != nil {
		sh.Offer(ch.Samples, ch.Verdicts, ch.Scores)
	}
	if sl := s.cfg.SampleLog; sl != nil {
		logChunk(sl, ch)
	}
}

// logChunk appends a scored chunk to the sample log. The records are
// built in a fixed-size array on the worker's stack and appended a piece
// at a time: one lock per piece instead of per record (per-record locking
// serializes the connection workers behind the log's mutex at full
// load), and no allocation per chunk.
func logChunk(sl *samplelog.Writer, ch session.TapChunk) {
	var recs [64]samplelog.Record
	for off := 0; off < len(ch.Samples); off += len(recs) {
		piece := recs[:min(len(recs), len(ch.Samples)-off)]
		for j := range piece {
			i := off + j
			flags := samplelog.FlagScored
			if ch.Verdicts[i].Malware {
				flags |= samplelog.FlagMalware
			}
			if ch.Events[i].Alarm {
				flags |= samplelog.FlagAlarm
			}
			if ch.Verdicts[i].Stage == core.StageShortCircuit {
				flags |= samplelog.FlagShortCircuit
			}
			piece[j] = samplelog.Record{
				Nanos:        ch.Ats[i].UnixNano(),
				Stream:       ch.Stream,
				App:          ch.App,
				ModelVersion: uint32(ch.Version),
				Flags:        flags,
				Class:        uint8(ch.Verdicts[i].PredictedClass),
				Score:        ch.Scores[i],
				Features:     ch.Samples[i],
			}
		}
		sl.AppendBatch(piece)
	}
}

// Client and Dial alias the agent client in internal/session. They exist
// only because the serving benchmark module (bench/) compiles against
// these names; other code uses session.Client and session.Dial.
type Client = session.Client

// Dial is session.Dial; see Client.
func Dial(ctx context.Context, addr, agent string) (*Client, error) {
	return session.Dial(ctx, addr, agent)
}
