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
//     DESIGN §10); stream opens and closes queue in the same ring, in
//     arrival order, and are never shed,
//   - the worker loop that coalesces whatever accumulated since its last
//     round into adaptive per-stream micro-batches,
//   - stream-table bookkeeping: duplicate-id/duplicate-app rejection,
//     unknown-stream accounting, controls applied at their arrival
//     position within a round;
//   - the agent client (Client, Dial, DialOnce), the other half of the
//     handshake: cmd/smartload drives either tier with it, and the
//     gateway dials its shards with it.
//
// A tier supplies only its policy as a Tier: the Welcome source, the
// Heartbeat echo, the per-connection Handler and its teardown, the idle
// timeout and its own metric instruments. The shard plugs in the Scoring
// handler from this package (compiled-detector epoch capture, a
// smoothing monitor per stream, fused verdict+smoothing evaluation); the
// gateway plugs in a forwarder that relays each stream's samples to the
// backend shard the consistent-hash ring picked.
//
// Goroutine model: per connection, one reader goroutine calls
// Push/Open/Close and one worker goroutine runs Run; every Handler and
// Stream method runs on that worker. The connection is the unit of
// parallelism. Conn's writer stays mutex-guarded: the reader's Heartbeat
// echoes and the gateway's relay goroutines write beside the worker.
package session

import (
	"fmt"
	"time"

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
	// Close ends the stream; shed is how many of this incarnation's queued
	// samples the ingress ring dropped under overload (they were never
	// processed).
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
	// session (the app names the stream: the gateway routes it by
	// (agent, app), so it must be unique).
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

	streams map[uint32]*entry // worker-owned after construction
	drain   []item            // reusable drain buffer
	touched []*entry          // reusable per-round stream list
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

// Open queues a stream open behind the samples pushed so far. Unlike
// samples, controls are never shed.
func (e *Engine) Open(stream uint32, app string) {
	e.q.control(stream, &ctrl{open: true, app: app})
	e.wake()
}

// Close queues a stream close behind the samples pushed so far.
func (e *Engine) Close(stream uint32) {
	e.q.control(stream, &ctrl{})
	e.wake()
}

func (e *Engine) wake() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// ShedCounts returns the ring's total shed-sample count and that of the
// stream's live incarnation (a queued Close takes over its count).
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

// round drains the ring and walks it once in arrival order: an Open
// applies at its position, samples join their stream's micro-batch, and
// a Close processes its stream's pending batch before closing it. The
// remaining batches are processed in first-touch order, then the handler
// flushes.
func (e *Engine) round() error {
	e.drain = e.q.drainInto(e.drain[:0])
	drainedAt := time.Now()
	e.touched = e.touched[:0]
	samples := 0
	for i := range e.drain {
		it := &e.drain[i]
		var err error
		switch {
		case it.ctl == nil:
			samples++
			e.add(it)
		case it.ctl.open:
			err = e.openStream(it.stream, it.ctl.app)
		default:
			err = e.closeStream(it.stream, it.ctl.shed, drainedAt)
		}
		if err != nil {
			return err
		}
	}
	if samples > 0 {
		e.cfg.BatchSize.Observe(float64(samples))
	}
	for _, st := range e.touched {
		if err := e.process(st, drainedAt); err != nil {
			return err
		}
	}
	return e.cfg.Handler.RoundEnd()
}

// add appends a drained sample to its stream's pending micro-batch.
func (e *Engine) add(it *item) {
	st := e.streams[it.stream]
	if st == nil {
		e.reject(it.stream, "", RejectUnknownSample)
		e.q.recycle(it.features)
		return
	}
	if len(st.samples) == 0 {
		e.touched = append(e.touched, st)
	}
	st.samples = append(st.samples, it.features)
	st.seqs = append(st.seqs, it.seq)
	st.ats = append(st.ats, it.at)
	st.origins = append(st.origins, it.origin)
}

// process hands st's pending micro-batch, if any, to its handler and
// recycles the batch's ring buffers.
func (e *Engine) process(st *entry, drainedAt time.Time) error {
	if len(st.samples) == 0 {
		return nil
	}
	err := st.h.Process(Batch{Samples: st.samples, Seqs: st.seqs, Ats: st.ats, Origins: st.origins, DrainedAt: drainedAt})
	e.q.recycle(st.samples...)
	st.samples = st.samples[:0]
	st.seqs = st.seqs[:0]
	st.ats = st.ats[:0]
	st.origins = st.origins[:0]
	return err
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

func (e *Engine) closeStream(id uint32, shed uint64, drainedAt time.Time) error {
	st, ok := e.streams[id]
	if !ok {
		e.reject(id, "", RejectUnknownClose)
		return nil
	}
	if err := e.process(st, drainedAt); err != nil {
		return err
	}
	delete(e.streams, id)
	return st.h.Close(shed)
}
