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
// atomic pointer. Each stream binds the generation that was active when
// it opened — it compiles that generation's detector and reports that
// generation's version in its StreamSummary — so Swap never touches a
// stream in flight; only streams opened after the swap score with the
// new model. cmd/smartserve triggers Swap from SIGHUP or a registry
// watch loop.
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
	// Detector is the trained model to serve; every stream gets its own
	// compiled instance. Required.
	Detector *core.Detector
	// Model is the display name advertised in the Welcome frame.
	Model string
	// ModelVersion is the initial model's registry version, echoed in
	// Welcome and StreamSummary frames (0 outside a registry).
	ModelVersion int
	// Drift, when non-nil, receives every scored sample of the initial
	// model generation for feature-distribution monitoring. A hot swap
	// installs the replacement generation's monitor (see Model.Drift).
	Drift *drift.Monitor
	// Envelope, when non-nil, enables the stage-0 cascade for the initial
	// model generation at the envelope's calibrated threshold: samples
	// inside the envelope short-circuit with a benign verdict before the
	// full detector runs. Must cover the detector's exact feature width.
	Envelope *anomaly.Envelope
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
	// Log receives connection lifecycle events (default slog.Default).
	Log *slog.Logger
}

func (c Config) fill() (Config, error) {
	if c.Detector == nil {
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
	if c.Model == "" {
		c.Model = "detector"
	}
	return c, nil
}

// Model is one servable model generation: the detector plus its registry
// identity and optional drift monitor. The server swaps generations
// atomically; streams bind the generation active at open time.
type Model struct {
	// Detector is the trained model; every stream compiles its own
	// instance. Required.
	Detector *core.Detector
	// Version is the registry version (0 outside a registry).
	Version int
	// Name is the display name advertised in the Welcome frame.
	Name string
	// Drift, when non-nil, receives every sample scored under this
	// generation. It must be safe for concurrent use (drift.Monitor is).
	Drift *drift.Monitor
	// Envelope, when non-nil, is the generation's stage-0 anomaly
	// envelope; streams binding the generation run the cascade at its
	// calibrated Threshold. Entries without one serve with the cascade
	// off.
	Envelope *anomaly.Envelope

	// cascade is m.Envelope compiled by New/Swap (nil = cascade off).
	cascade *anomaly.Compiled
}

// resolveCascade validates m.Envelope against the served feature width n
// and compiles it into the generation's cascade.
func resolveCascade(m *Model, n int) error {
	m.cascade = nil
	if m.Envelope == nil {
		return nil
	}
	if err := m.Envelope.Validate(); err != nil {
		return fmt.Errorf("serve: anomaly envelope: %w", err)
	}
	if m.Envelope.NumFeatures() != n {
		return fmt.Errorf("serve: anomaly envelope covers %d features, model has %d",
			m.Envelope.NumFeatures(), n)
	}
	m.cascade = m.Envelope.Compile()
	return nil
}

// Server serves one trained detector over the wire protocol.
type Server struct {
	cfg         Config
	numFeatures int
	fe          *session.Frontend

	active  atomic.Pointer[Model]
	shadowP atomic.Pointer[shadow.Shadow]

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
	n := filled.Detector.NumFeatures()
	if n > wire.MaxFeatures {
		return nil, fmt.Errorf("serve: model expects %d features, above the wire limit %d", n, wire.MaxFeatures)
	}
	if filled.Drift != nil && filled.Drift.NumFeatures() != n {
		return nil, fmt.Errorf("serve: drift monitor covers %d features, model has %d", filled.Drift.NumFeatures(), n)
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
		},
		Log: filled.Log,
	})
	initial := &Model{
		Detector: filled.Detector,
		Version:  filled.ModelVersion,
		Name:     filled.Model,
		Drift:    filled.Drift,
		Envelope: filled.Envelope,
	}
	if err := resolveCascade(initial, n); err != nil {
		return nil, err
	}
	s.active.Store(initial)
	s.setModelInfo(nil, initial)
	return s, nil
}

// NumFeatures returns the feature width the served model expects.
func (s *Server) NumFeatures() int { return s.numFeatures }

// ActiveModel returns the generation new streams currently bind.
func (s *Server) ActiveModel() Model { return *s.active.Load() }

// Swap atomically promotes a new model generation: streams opened from
// now on compile m.Detector and report m.Version, while streams already
// in flight — including samples still queued for them — finish on the
// generation they opened with. The replacement must keep the feature
// width: connected agents were told the width in their Welcome and the
// read loop enforces it per sample, so changing it would invalidate
// every live connection.
func (s *Server) Swap(m Model) error {
	if m.Detector == nil {
		return errors.New("serve: swap with nil detector")
	}
	if n := m.Detector.NumFeatures(); n != s.numFeatures {
		return fmt.Errorf("serve: swap model expects %d features, serving %d", n, s.numFeatures)
	}
	if m.Drift != nil && m.Drift.NumFeatures() != s.numFeatures {
		return fmt.Errorf("serve: swap drift monitor covers %d features, serving %d", m.Drift.NumFeatures(), s.numFeatures)
	}
	if err := resolveCascade(&m, s.numFeatures); err != nil {
		return err
	}
	if m.Name == "" {
		m.Name = s.cfg.Model
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

// SetShadow attaches (or, with nil, detaches) a shadow scorer: every
// sample scored by the live path is offered to it off the hot path, so
// an operator can measure a candidate's divergence on real traffic
// before promoting it. The caller keeps ownership — Close the shadow
// after detaching to collect the final report.
func (s *Server) SetShadow(sh *shadow.Shadow) error {
	if sh != nil && sh.NumFeatures() != s.numFeatures {
		return fmt.Errorf("serve: shadow model expects %d features, serving %d", sh.NumFeatures(), s.numFeatures)
	}
	s.shadowP.Store(sh)
	return nil
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
		Source: func() session.Generation {
			am := s.active.Load()
			g := session.Generation{
				Detector: am.Detector,
				Version:  am.Version,
				Drift:    am.Drift,
				Cascade:  am.cascade,
			}
			if am.Envelope != nil {
				g.CascadeThreshold = am.Envelope.Threshold
			}
			return g
		},
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

// tap offers every scored chunk to the attached shadow scorer and the
// durable sample log, if configured — both off the hot path: Offer and
// Append copy what they keep and never block.
func (s *Server) tap(ch session.TapChunk) {
	if sh := s.shadowP.Load(); sh != nil {
		for i := range ch.Samples {
			sh.Offer(ch.Samples[i], shadow.Primary{
				Malware: ch.Verdicts[i].Malware,
				Class:   ch.Verdicts[i].PredictedClass.String(),
				Score:   ch.Scores[i],
			})
		}
	}
	if sl := s.cfg.SampleLog; sl != nil {
		// One AppendBatch per chunk: per-record locking here serializes
		// the connection workers behind the log's mutex at full load. The
		// chunk slice is per-call — taps run concurrently across
		// connections.
		recs := make([]samplelog.Record, len(ch.Samples))
		for i := range ch.Samples {
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
			recs[i] = samplelog.Record{
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
		sl.AppendBatch(recs)
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
