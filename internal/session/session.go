// Package session is the wire front end and per-connection stream
// engine shared by the shard tier (internal/serve) and the gateway tier
// (internal/cluster). It owns everything about a connection that does
// not depend on what "processing" means:
//
//   - the front end (Frontend, Conn): listen, accept, the Hello/Welcome
//     handshake, the read loop with its feature-width check and lazily
//     armed idle deadline, reject→wire.Error mapping, the framed writer,
//     the Emitter that turns scored chunks into Verdict/StreamSummary
//     frames, and graceful drain;
//   - the bounded drop-oldest ingress ring with a feature-buffer free
//     list and per-stream shed accounting (the backpressure model from
//     DESIGN §10),
//   - the control queue that carries stream opens/closes outside the
//     sheddable data path,
//   - the worker loop that coalesces whatever accumulated since its last
//     round into adaptive micro-batches and fans processing out across
//     the touched streams on internal/parallel,
//   - stream-table bookkeeping: duplicate-id/duplicate-app rejection,
//     unknown-stream accounting, ordered open→process→close rounds.
//
// A tier supplies only its policy as a Tier: the Welcome source, the
// Heartbeat echo, the per-connection Handler and its teardown, the idle
// timeout and its own metric instruments. The shard plugs in the Scoring
// handler from this package (compiled-detector epoch capture, tracker
// lifecycle, fused verdict+smoothing evaluation); the gateway plugs in a
// forwarder that relays each stream's samples to the backend shard the
// consistent-hash ring picked.
//
// Goroutine model: per connection, one reader goroutine calls
// Push/Open/Close, one worker goroutine runs Run, and the handler's
// per-stream Process calls may execute concurrently across *different*
// streams within a round but never for the same stream. Handlers that
// share output state across streams serialize it themselves; Conn's
// writer is mutex-guarded.
package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"twosmart/internal/parallel"
	"twosmart/internal/telemetry"
)

// Batch is one stream's pending micro-batch, handed to Stream.Process.
// The slices are engine-owned and valid only for the duration of the
// call: Samples[i] (with client sequence Seqs[i], received at Ats[i]) is
// a recycled ring buffer that goes back on the free list as soon as
// Process returns. Handlers that retain samples must copy.
//
// Origins[i] is the upstream tier's unix-nano ingress stamp for the
// sample (0 when the agent talked to this process directly); DrainedAt
// is the single timestamp at which this round's ring drain happened.
// Both exist for trace hop attribution (internal/trace) and cost the
// unsampled path nothing beyond the slice append.
type Batch struct {
	Samples   [][]float64
	Seqs      []uint32
	Ats       []time.Time
	Origins   []int64
	DrainedAt time.Time
}

// Len returns the number of samples in the batch.
func (b Batch) Len() int { return len(b.Samples) }

// Stream is one open stream's processing state, produced by
// Handler.OpenStream and owned by the engine's worker goroutine.
type Stream interface {
	// Process handles one adaptive micro-batch in arrival order. An error
	// tears the whole session down (Run returns it).
	Process(b Batch) error
	// Close ends the stream; shed is how many of its queued samples the
	// ingress ring dropped under overload (they were never processed).
	Close(shed uint64) error
}

// Handler is the processing half a transport plugs into the engine.
// All methods run on the engine's worker goroutine.
type Handler interface {
	// OpenStream is called once per accepted stream open, after the
	// engine's duplicate-id and duplicate-app checks passed. An error
	// tears the session down.
	OpenStream(id uint32, app string) (Stream, error)
	// RoundEnd runs after every micro-batch round (including the final
	// drain round); transports flush their buffered output here so a
	// round's verdicts cost one syscall.
	RoundEnd() error
}

// RejectReason classifies per-stream protocol violations the engine
// handles without killing the session.
type RejectReason int

const (
	// RejectDupStream is an OpenStream for an id that is already open.
	RejectDupStream RejectReason = iota
	// RejectDupApp is an OpenStream for an app already streamed on this
	// session (app keys the per-stream monitor, so it must be unique).
	RejectDupApp
	// RejectUnknownClose is a CloseStream for an id that is not open.
	RejectUnknownClose
	// RejectUnknownSample is a queued sample for an id that is not open;
	// the sample is dropped and its buffer recycled.
	RejectUnknownSample
)

// String returns the reason's wire-log spelling.
func (r RejectReason) String() string {
	switch r {
	case RejectDupStream:
		return "duplicate stream"
	case RejectDupApp:
		return "duplicate app"
	case RejectUnknownClose:
		return "close of unopened stream"
	case RejectUnknownSample:
		return "sample for unopened stream"
	default:
		return fmt.Sprintf("reject(%d)", int(r))
	}
}

// Config configures one stream engine (one per connection).
type Config struct {
	// Handler supplies per-stream processing. Required.
	Handler Handler
	// QueueDepth bounds the ingress ring; beyond it the oldest queued
	// samples are shed (default 4096).
	QueueDepth int
	// Workers bounds the per-round processing fan-out across the
	// session's streams (default: one worker per touched stream, capped
	// by runtime.NumCPU via internal/parallel).
	Workers int
	// OnReject, when non-nil, observes per-stream protocol violations
	// (duplicate open, unknown close, sample for an unopened stream).
	// Called on the worker goroutine; app is empty when unknown.
	OnReject func(id uint32, app string, reason RejectReason)
	// BatchSize, when non-nil, observes every non-empty round's drained
	// sample count — the adaptive micro-batch size distribution.
	BatchSize telemetry.Histogram
}

func (c Config) fill() (Config, error) {
	if c.Handler == nil {
		return c, fmt.Errorf("session: nil handler")
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4096
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("session: queue depth %d below 1", c.QueueDepth)
	}
	if c.BatchSize == nil {
		c.BatchSize = telemetry.NopHistogram
	}
	return c, nil
}

// ctrl is a reader→worker control message (stream open/close), routed
// through a queue separate from the sample ring so load-shedding can
// never drop one.
type ctrl struct {
	open   bool
	stream uint32
	app    string
}

// entry is the engine's bookkeeping for one open stream: the handler's
// state plus the reusable per-round micro-batch slices.
type entry struct {
	id  uint32
	app string
	h   Stream

	// pending micro-batch, refilled each round; samples hold ring-owned
	// buffers that are recycled after Process returns.
	samples [][]float64
	seqs    []uint32
	ats     []time.Time
	origins []int64
}

// Engine is one connection's stream pump. The reader goroutine feeds it
// (Push, Open, Close); the worker goroutine drives it (Run).
type Engine struct {
	cfg Config
	q   *ring

	kick chan struct{} // worker wake-up, capacity 1

	ctrlMu sync.Mutex
	ctrls  []ctrl

	streams map[uint32]*entry // worker-owned after construction
	drain   []item            // reusable drain buffer
	touched []*entry          // reusable per-round stream list
	closes  []uint32          // reusable per-round close list
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     filled,
		q:       newRing(filled.QueueDepth),
		kick:    make(chan struct{}, 1),
		streams: make(map[uint32]*entry),
	}, nil
}

// Push copies one sample into the ingress ring, waking the worker. It
// reports whether the ring shed its oldest queued sample to make room —
// the caller owns the shed telemetry. origin is the upstream tier's
// unix-nano ingress stamp (wire.Sample.IngressNanos; 0 for direct
// agents), threaded through to Batch.Origins for trace attribution.
// Safe to call from the reader goroutine concurrently with Run.
func (e *Engine) Push(stream, seq uint32, origin int64, at time.Time, features []float64) (shed bool) {
	shed = e.q.push(stream, seq, origin, at, features)
	e.wake()
	return shed
}

// Open enqueues a stream-open control message. Unlike samples, control
// messages are never shed.
func (e *Engine) Open(stream uint32, app string) {
	e.enqueueCtrl(ctrl{open: true, stream: stream, app: app})
}

// Close enqueues a stream-close control message.
func (e *Engine) Close(stream uint32) {
	e.enqueueCtrl(ctrl{stream: stream})
}

func (e *Engine) enqueueCtrl(m ctrl) {
	e.ctrlMu.Lock()
	e.ctrls = append(e.ctrls, m)
	e.ctrlMu.Unlock()
	e.wake()
}

func (e *Engine) wake() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// ShedCounts returns the ring's total and per-stream shed-sample counts.
func (e *Engine) ShedCounts(stream uint32) (total, forStream uint64) {
	return e.q.shedCounts(stream)
}

// Run is the worker loop: every wake-up it processes one adaptive
// micro-batch round; when done closes it runs a final round over
// whatever is still queued (the graceful-drain flush) and returns. A
// handler error aborts the loop and is returned; the transport tears the
// connection down.
func (e *Engine) Run(done <-chan struct{}) error {
	for {
		select {
		case <-e.kick:
			if err := e.round(); err != nil {
				return err
			}
		case <-done:
			return e.round()
		}
	}
}

// round runs one micro-batch round: apply stream opens, drain the ring,
// fan processing out across the touched streams, recycle the buffers,
// then apply stream closes and let the handler flush.
func (e *Engine) round() error {
	e.ctrlMu.Lock()
	ctrls := e.ctrls
	e.ctrls = nil
	e.ctrlMu.Unlock()

	e.closes = e.closes[:0]
	if err := e.apply(ctrls); err != nil {
		return err
	}

	e.drain = e.q.drainInto(e.drain[:0])
	if len(e.drain) > 0 {
		drainedAt := time.Now()
		e.cfg.BatchSize.Observe(float64(len(e.drain)))
		e.touched = e.touched[:0]
		for i := range e.drain {
			it := &e.drain[i]
			st := e.streams[it.stream]
			if st == nil {
				// The stream's Open may have been queued after this round
				// took its control snapshot, together with this sample.
				pulled, err := e.pullOpen(it.stream)
				if err != nil {
					return err
				}
				if pulled {
					st = e.streams[it.stream]
				}
			}
			if st == nil {
				e.reject(it.stream, "", RejectUnknownSample)
				e.q.recycle(it.features)
				continue
			}
			if len(st.samples) == 0 {
				e.touched = append(e.touched, st)
			}
			st.samples = append(st.samples, it.features)
			st.seqs = append(st.seqs, it.seq)
			st.ats = append(st.ats, it.at)
			st.origins = append(st.origins, it.origin)
		}
		// Per-stream fan-out: each stream's processing state is
		// goroutine-isolated (see the package doc), so streams process
		// concurrently; only the transport's output path is shared and
		// handler-guarded. The fan-out deliberately ignores cancellation:
		// a drain must process and flush everything already queued.
		err := parallel.ForEach(context.Background(), len(e.touched), parallel.Options{Workers: e.cfg.Workers},
			func(_ context.Context, i int) error {
				st := e.touched[i]
				return st.h.Process(Batch{Samples: st.samples, Seqs: st.seqs, Ats: st.ats, Origins: st.origins, DrainedAt: drainedAt})
			})
		for _, st := range e.touched {
			for _, buf := range st.samples {
				e.q.recycle(buf)
			}
			st.samples = st.samples[:0]
			st.seqs = st.seqs[:0]
			st.ats = st.ats[:0]
			st.origins = st.origins[:0]
		}
		if err != nil {
			return err
		}
	}

	for _, id := range e.closes {
		if err := e.closeStream(id); err != nil {
			return err
		}
	}
	return e.cfg.Handler.RoundEnd()
}

// apply opens the streams of ctrls in order and queues its closes on
// e.closes, which the round applies after processing.
func (e *Engine) apply(ctrls []ctrl) error {
	for _, m := range ctrls {
		if !m.open {
			e.closes = append(e.closes, m.stream)
		} else if err := e.openStream(m.stream, m.app); err != nil {
			return err
		}
	}
	return nil
}

// pullOpen takes the queued control prefix up to and including the
// first Open of stream id and applies it in the current round. The
// reader enqueues a stream's Open before pushing its samples, so a
// drained sample whose stream is unknown has its Open queued here
// unless the agent never sent one. The prefix stays queued when one of
// its opens collides with a stream open now: that stream may close
// only at the end of this round, and the next round orders it right.
func (e *Engine) pullOpen(id uint32) (bool, error) {
	e.ctrlMu.Lock()
	n := -1
	for i, m := range e.ctrls {
		if m.open && m.stream == id {
			n = i + 1
			break
		}
	}
	if n < 0 || e.collides(e.ctrls[:n]) {
		e.ctrlMu.Unlock()
		return false, nil
	}
	prefix := e.ctrls[:n:n]
	e.ctrls = e.ctrls[n:]
	e.ctrlMu.Unlock()
	return true, e.apply(prefix)
}

// collides reports whether an open in ctrls names a stream id or app
// that is open now.
func (e *Engine) collides(ctrls []ctrl) bool {
	for _, m := range ctrls {
		if !m.open {
			continue
		}
		if _, dup := e.streams[m.stream]; dup {
			return true
		}
		for _, st := range e.streams {
			if st.app == m.app {
				return true
			}
		}
	}
	return false
}

func (e *Engine) reject(id uint32, app string, reason RejectReason) {
	if e.cfg.OnReject != nil {
		e.cfg.OnReject(id, app, reason)
	}
}

func (e *Engine) openStream(id uint32, app string) error {
	if _, dup := e.streams[id]; dup {
		e.reject(id, app, RejectDupStream)
		return nil
	}
	for _, st := range e.streams {
		if st.app == app {
			e.reject(id, app, RejectDupApp)
			return nil
		}
	}
	h, err := e.cfg.Handler.OpenStream(id, app)
	if err != nil {
		return err
	}
	e.streams[id] = &entry{id: id, app: app, h: h}
	return nil
}

func (e *Engine) closeStream(id uint32) error {
	st, ok := e.streams[id]
	if !ok {
		e.reject(id, "", RejectUnknownClose)
		return nil
	}
	delete(e.streams, id)
	_, shed := e.q.shedCounts(id)
	return st.h.Close(shed)
}
