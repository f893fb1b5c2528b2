package session

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/monitor"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// HandshakeTimeout bounds how long either side of a fresh connection
// waits for the other's half of the Hello/Welcome exchange.
const HandshakeTimeout = 10 * time.Second

// BatchSizeBuckets is the adaptive micro-batch histogram layout: powers
// of two up to the default queue depth.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Metrics are one tier's front-end instruments, registered under the
// tier's own family names. Nil fields are no-ops.
type Metrics struct {
	ConnsActive telemetry.Gauge
	ConnsTotal  telemetry.Counter
	ConnsReaped telemetry.Counter
	Samples     telemetry.Counter
	Shed        telemetry.Counter
	ProtoErrs   telemetry.Counter
	BatchSize   telemetry.Histogram
	// Verdicts and Latency observe the frames the Conn's Emitter writes.
	Verdicts telemetry.Counter
	Latency  telemetry.Histogram
	// Flushes counts the Conn flushes that wrote bytes to the agent.
	Flushes telemetry.Counter
}

func (m *Metrics) fill() {
	for _, c := range []*telemetry.Counter{&m.ConnsTotal, &m.ConnsReaped, &m.Samples, &m.Shed, &m.ProtoErrs, &m.Verdicts, &m.Flushes} {
		if *c == nil {
			*c = telemetry.NopCounter
		}
	}
	for _, h := range []*telemetry.Histogram{&m.BatchSize, &m.Latency} {
		if *h == nil {
			*h = telemetry.NopHistogram
		}
	}
	if m.ConnsActive == nil {
		m.ConnsActive = telemetry.NopGauge
	}
}

// Tier is what differs between the wire tiers sharing the front end.
type Tier struct {
	// Welcome returns the handshake reply for a new agent, or the Error
	// frame that refuses it. Required.
	Welcome func() (wire.Welcome, *wire.Error)
	// Heartbeat, when non-nil, rewrites each Heartbeat before it is
	// echoed; nil echoes verbatim.
	Heartbeat func(wire.Heartbeat) wire.Heartbeat
	// NewHandler builds one connection's handler after the handshake.
	// The returned teardown, when non-nil, runs once the engine worker
	// exited, before the connection's closing notices and final flush,
	// so frames it writes still reach the agent. Required.
	NewHandler func(c *Conn, agent string) (Handler, func(), error)
	// QueueDepth bounds each connection's ingress ring (see Config).
	QueueDepth int
	// IdleTimeout, when positive, reaps a connection that sends no frame
	// for that long: its queued samples are still processed and flushed,
	// then it gets Error{CodeIdle} and is closed. Zero disables reaping.
	IdleTimeout time.Duration
	Metrics     Metrics
	// Log receives connection lifecycle events (default slog.Default).
	Log *slog.Logger
}

// Frontend is the wire connection lifecycle shared by the shard and the
// gateway: listen, accept, handshake, the read loop feeding one Engine
// per connection, and graceful drain.
type Frontend struct {
	tier Tier
	ln   net.Listener
	wg   sync.WaitGroup
}

// NewFrontend builds a front end for tier. Call Listen then Serve.
func NewFrontend(tier Tier) *Frontend {
	tier.Metrics.fill()
	if tier.Log == nil {
		tier.Log = slog.Default()
	}
	return &Frontend{tier: tier}
}

// Listen binds the TCP listener and returns the bound address (useful
// with ":0").
func (f *Frontend) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.ln = ln
	return ln.Addr(), nil
}

// Serve accepts and handles connections until ctx is cancelled, then
// drains: the listener closes, every connection's read side is shut,
// everything already queued is processed and flushed, and Serve returns
// nil. A listener failure other than the drain close is returned.
func (f *Frontend) Serve(ctx context.Context) error {
	if f.ln == nil {
		return errors.New("Serve before Listen")
	}
	defer context.AfterFunc(ctx, func() { f.ln.Close() })()
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			f.wg.Wait()
			return fmt.Errorf("accept: %w", err)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.handle(ctx, nc)
		}()
	}
	f.tier.Log.Info("draining", "reason", context.Cause(ctx))
	f.wg.Wait()
	return nil
}

// Conn is one agent connection: it parses inbound frames into its
// Engine, owns the framed writer the tier's handler writes through, and
// implements Emitter to turn scored chunks into Verdict/StreamSummary
// frames.
type Conn struct {
	fe      *Frontend
	nc      net.Conn
	r       *wire.Reader
	eng     *Engine
	welcome wire.Welcome

	wmu sync.Mutex
	w   *wire.Writer
}

func (f *Frontend) handle(ctx context.Context, nc net.Conn) {
	m := &f.tier.Metrics
	m.ConnsTotal.Inc()
	m.ConnsActive.Add(1)
	defer m.ConnsActive.Add(-1)
	defer nc.Close()
	log := f.tier.Log.With("remote", nc.RemoteAddr().String())

	c := &Conn{fe: f, nc: nc, w: wire.NewWriter(nc)}
	agent, err := c.handshake()
	if err != nil {
		log.Warn("handshake", "err", err)
		return
	}
	h, teardown, err := f.tier.NewHandler(c, agent)
	if err != nil {
		log.Error("handler", "err", err)
		return
	}
	if teardown == nil {
		teardown = func() {}
	}
	c.eng, err = New(Config{
		Handler:    h,
		QueueDepth: f.tier.QueueDepth,
		OnReject:   c.reject,
		BatchSize:  m.BatchSize,
	})
	if err != nil {
		teardown()
		log.Error("session", "err", err)
		return
	}

	// Drain: a cancelled server closes the read side so the reader
	// unblocks; everything already queued still gets processed.
	defer context.AfterFunc(ctx, func() { closeRead(nc) })()

	readerDone := make(chan struct{})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		if err := c.eng.Run(readerDone); err != nil {
			// Typically a write to a dead client; closing unblocks the reader.
			log.Warn("connection worker", "err", err)
			nc.Close()
		}
	}()

	rerr := c.readLoop()
	close(readerDone)
	<-workerDone
	teardown()

	idle := f.tier.IdleTimeout
	reaped := idle > 0 && ctx.Err() == nil && errors.Is(rerr, os.ErrDeadlineExceeded)
	if reaped {
		m.ConnsReaped.Inc()
		// Best-effort notices so an agent can tell a reap or a drain from
		// a network failure; queued samples were already flushed.
		c.WriteFrame(wire.Error{Code: wire.CodeIdle,
			Msg: fmt.Sprintf("no frames for %s, reaping idle connection", idle)})
	}
	if ctx.Err() != nil {
		c.WriteFrame(wire.Error{Code: wire.CodeDraining, Msg: "draining"})
	}
	c.Flush()
	switch {
	case reaped:
		log.Info("connection reaped", "idle_timeout", idle)
	case rerr != nil && !errors.Is(rerr, io.EOF) && ctx.Err() == nil:
		log.Warn("connection closed", "err", rerr)
	default:
		log.Info("connection closed")
	}
}

// closeRead half-closes the connection so a blocked reader sees EOF while
// queued output can still be written.
func closeRead(nc net.Conn) {
	type readCloser interface{ CloseRead() error }
	if rc, ok := nc.(readCloser); ok {
		rc.CloseRead()
		return
	}
	nc.SetReadDeadline(time.Now())
}

// handshake accepts the agent's Hello and answers with the tier's
// Welcome, returning the agent name.
func (c *Conn) handshake() (string, error) {
	c.nc.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	r := wire.NewReader(c.nc)
	f, err := r.Next()
	if err != nil {
		return "", c.readErr(err)
	}
	hello, ok := f.(wire.Hello)
	if !ok {
		return "", c.violation(wire.CodeProtocol, fmt.Sprintf("first frame is type 0x%02x, want Hello", f.Type()))
	}
	if hello.Proto != wire.ProtoVersion {
		return "", c.violation(wire.CodeVersion,
			fmt.Sprintf("protocol v%d unsupported, this end speaks v%d", hello.Proto, wire.ProtoVersion))
	}
	w, refuse := c.fe.tier.Welcome()
	if refuse != nil {
		c.WriteFrame(*refuse)
		c.Flush()
		return "", fmt.Errorf("refused: %s", refuse.Msg)
	}
	c.nc.SetReadDeadline(time.Time{})
	c.r, c.welcome = r, w
	c.WriteFrame(w)
	return hello.Agent, c.Flush()
}

// violation counts a connection-fatal protocol error, tells the agent
// why, and returns the error that ends the connection.
func (c *Conn) violation(code uint16, msg string) error {
	c.fe.tier.Metrics.ProtoErrs.Inc()
	c.WriteFrame(wire.Error{Code: code, Msg: msg})
	c.Flush()
	return errors.New(msg)
}

// readErr answers an undecodable frame as a protocol violation. Any other
// read error (EOF, reset, deadline, a stream truncated mid-frame) ends
// the connection quietly.
func (c *Conn) readErr(err error) error {
	if errors.Is(err, wire.ErrMalformed) {
		return c.violation(wire.CodeProtocol, err.Error())
	}
	return err
}

// readLoop parses frames until EOF, a read error, an idle-timeout reap or
// a protocol violation, feeding samples and stream opens/closes into the
// engine's ring. It works by the read burst, the frames one buffered read
// delivers: their samples share one clock read (the ingress stamp, which
// also drives the idle re-arm) and enter the ring in one push with one
// worker wake. The burst is pushed before any read that could block and
// before any other frame, violation or read error, so every frame still
// takes effect in arrival order. A burst deeper than the ring is pushed
// in chunks of the ring's depth, so no push sheds samples of its own.
func (c *Conn) readLoop() error {
	m := &c.fe.tier.Metrics
	idle := c.fe.tier.IdleTimeout
	width := int(c.welcome.NumFeatures)
	depth := c.eng.cfg.QueueDepth
	// The idle deadline is re-armed lazily: re-arming costs a poller
	// update, so it is refreshed only once a quarter of the budget has
	// elapsed since the last arm. A connection silent past the budget
	// fails the read with os.ErrDeadlineExceeded and is reaped, between
	// 0.75× and 1× the budget after its last frame.
	now := time.Now()
	lastArm := now
	if idle > 0 {
		c.nc.SetReadDeadline(lastArm.Add(idle))
	}
	var burst []wire.Sample // decode targets, reused with their feature buffers
	n := 0                  // samples decoded since the last push
	push := func() {
		if n > 0 {
			m.Samples.Add(uint64(n))
			if shed := c.eng.PushBurst(now, burst[:n]); shed > 0 {
				m.Shed.Add(uint64(shed))
			}
			n = 0
		}
	}
	for {
		fresh := !c.r.Ready()
		if fresh || n == depth {
			push()
		}
		if n == len(burst) {
			burst = append(burst, wire.Sample{})
		}
		ok, err := c.r.ReadSample(&burst[n])
		if fresh {
			now = time.Now()
			if idle > 0 && now.Sub(lastArm) > idle/4 {
				c.nc.SetReadDeadline(now.Add(idle))
				lastArm = now
			}
		}
		if err != nil {
			push()
			return c.readErr(err)
		}
		if ok {
			if got := len(burst[n].Features); got != width {
				push()
				return c.violation(wire.CodeBadFeatures,
					fmt.Sprintf("sample has %d features, model wants %d", got, width))
			}
			n++
			continue
		}
		push()
		f, err := c.r.Next()
		if err != nil {
			return c.readErr(err)
		}
		switch fr := f.(type) {
		case wire.OpenStream:
			c.eng.Open(fr.Stream, fr.App)
		case wire.CloseStream:
			c.eng.Close(fr.Stream)
		case wire.Heartbeat:
			if stamp := c.fe.tier.Heartbeat; stamp != nil {
				fr = stamp(fr)
			}
			c.WriteFrame(fr)
			c.Flush()
		default:
			return c.violation(wire.CodeProtocol, fmt.Sprintf("unexpected frame type 0x%02x", f.Type()))
		}
	}
}

// reject maps the engine's per-stream protocol violations onto wire
// Error frames and the protocol-error counter; none of them kill the
// connection.
func (c *Conn) reject(id uint32, app string, reason RejectReason) {
	c.fe.tier.Metrics.ProtoErrs.Inc()
	switch reason {
	case RejectDupStream:
		c.WriteFrame(wire.Error{Code: wire.CodeBadStream, Msg: fmt.Sprintf("stream %d already open", id)})
	case RejectDupApp:
		c.WriteFrame(wire.Error{Code: wire.CodeBadStream,
			Msg: fmt.Sprintf("app %q already streamed on this connection", app)})
	case RejectUnknownClose:
		c.WriteFrame(wire.Error{Code: wire.CodeBadStream, Msg: fmt.Sprintf("stream %d not open", id)})
	case RejectUnknownSample:
		// Counted only: a sample for a stream never opened is an agent
		// bug, not worth a frame per sample.
	}
}

// Verdicts implements Emitter: one scored chunk becomes a run of Verdict
// frames, written under the writer mutex so Heartbeat echoes interleave
// with them at frame granularity.
func (c *Conn) Verdicts(id uint32, _ int, seqs []uint32, ats []time.Time,
	verdicts []core.Verdict, scores []float64, events []monitor.Event) error {
	m := &c.fe.tier.Metrics
	now := time.Now()
	c.wmu.Lock()
	for i := range verdicts {
		var flags uint8
		if verdicts[i].Malware {
			flags |= wire.FlagMalware
		}
		if events[i].Alarm {
			flags |= wire.FlagAlarm
		}
		if events[i].Changed {
			flags |= wire.FlagAlarmChanged
		}
		if verdicts[i].Stage == core.StageShortCircuit {
			flags |= wire.FlagShortCircuit
		}
		if err := c.w.Write(wire.Verdict{
			Stream:   id,
			Seq:      seqs[i],
			Flags:    flags,
			Class:    uint8(verdicts[i].PredictedClass),
			Score:    scores[i],
			Smoothed: events[i].Smoothed,
		}); err != nil {
			c.wmu.Unlock()
			return err
		}
		m.Latency.ObserveDuration(now.Sub(ats[i]))
	}
	c.wmu.Unlock()
	m.Verdicts.Add(uint64(len(verdicts)))
	return nil
}

// Summary implements Emitter: the closing account of a stream becomes
// its StreamSummary frame, reporting the model epoch it was opened under.
func (c *Conn) Summary(id uint32, version int, sum monitor.Summary, shed uint64) error {
	c.WriteFrame(wire.StreamSummary{
		Stream:       id,
		ModelVersion: uint32(version),
		Samples:      uint64(sum.Samples),
		Shed:         shed,
		Alarms:       uint32(sum.Alarms),
		MaxSmoothed:  sum.MaxSmoothed,
	})
	return nil
}

// WriteFrame buffers one frame under the writer mutex; I/O errors
// surface on the next Flush.
func (c *Conn) WriteFrame(f wire.Frame) {
	c.wmu.Lock()
	c.w.Write(f)
	c.wmu.Unlock()
}

// WriteRaw buffers already-encoded frames under the writer mutex in one
// call: a relay's run of Verdicts passes through whole. I/O errors
// surface on the next Flush.
func (c *Conn) WriteRaw(frames []byte) {
	c.wmu.Lock()
	c.w.WriteRaw(frames)
	c.wmu.Unlock()
}

// Flush implements Emitter: it pushes buffered frames to the agent, and
// counts the flush in Metrics.Flushes when there were any.
func (c *Conn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w.Buffered() > 0 {
		c.fe.tier.Metrics.Flushes.Inc()
	}
	return c.w.Flush()
}
