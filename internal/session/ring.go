package session

import (
	"sync"
	"time"

	"twosmart/internal/wire"
)

// item is one drained ingress sample or stream control: which stream it
// belongs to, the client's sequence number, the upstream-tier ingress
// stamp (unix nanos from the gateway, 0 when the agent sent directly),
// the local ingress timestamp (for the end-to-end verdict latency
// histogram) and the feature vector, copied into a ring-owned buffer that
// is recycled once the sample is scored or shed. A control carries only
// its stream and ctl, which points into the ring's array of the round's
// controls. item is the slot of the ring and of the drain buffer, so a
// control is not held here by value.
type item struct {
	stream   uint32
	seq      uint32
	origin   int64
	at       time.Time
	features []float64
	ctl      *ctrl // nil for a sample
}

// ctrl is a stream open or close. Controls are ordered with the samples
// around them but are never shed.
type ctrl struct {
	stream uint32
	open   bool
	app    string
	// pos is how many samples had been pushed when the control arrived:
	// it precedes the sample numbered pos.
	pos uint64
	// shed is, for a close, how many samples of the stream incarnation it
	// ends the ring dropped.
	shed uint64
}

// ring is a session's bounded ingress queue with explicit load-shedding:
// pushing into a full ring drops the *oldest* queued sample (the one
// whose 10 ms-period data is most stale and least worth scoring late)
// rather than blocking the reader or buffering without bound. Shed
// samples are counted in total and per stream incarnation so the
// transport can export shed counters and report per-stream shed counts
// in StreamSummary frames. Stream controls queue under the same mutex
// and drain interleaved with the samples in arrival order. Feature
// buffers cycle through an internal free list, and queued controls are
// held by value in two arrays that trade places at each drain, so the
// steady state allocates nothing.
//
// depth is a bound, not a reservation: the item array starts empty and
// doubles, up to depth, only when a push finds it full. item holds
// pointers, and Go makes such an allocation resident as soon as it is
// made, so a connection whose queue never fills pays for what it queued,
// not for depth.
type ring struct {
	mu     sync.Mutex
	depth  int    // the most samples queued at once; past it, the oldest is shed
	buf    []item // a circular queue; head stays 0 until len(buf) reaches depth
	head   int
	n      int
	pushed uint64 // samples ever pushed: the number of the next one
	ctrls  []ctrl // queued controls, in arrival order
	// round holds the controls of the last drain, which its items point
	// into. Only the worker drains, so they stay put for its round; the
	// next drain reuses the array for the controls queued after it.
	round   []ctrl
	free    [][]float64
	shedAll uint64
	shedBy  map[uint32]uint64 // sheds of each stream's live incarnation
}

// ringFloor is the item array's first size.
const ringFloor = 16

func newRing(depth int) *ring {
	return &ring{depth: depth, shedBy: make(map[uint32]uint64)}
}

// grow doubles the item array, from ringFloor, up to depth. The ring
// sheds, and so wraps, only once the array is at depth, and a drain
// resets head, so below depth the queued items are buf[:n]. Caller must
// hold r.mu.
func (r *ring) grow() {
	buf := make([]item, min(max(2*len(r.buf), ringFloor), r.depth))
	copy(buf, r.buf[:r.n])
	r.buf = buf
}

// grab returns a feature buffer of length n, reusing a recycled one when
// possible. Caller must hold r.mu.
func (r *ring) grab(n int) []float64 {
	if k := len(r.free); k > 0 {
		b := r.free[k-1]
		r.free = r.free[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

// push queues one sample and reports whether it shed one: the one-sample
// case of pushBurst.
func (r *ring) push(stream, seq uint32, origin int64, at time.Time, features []float64) (shed bool) {
	one := [1]wire.Sample{{Stream: stream, Seq: seq, IngressNanos: uint64(origin), Features: features}}
	return r.pushBurst(at, one[:]) > 0
}

// pushBurst copies a burst of samples, all received at at, into the queue
// in order under one lock. Each sample that finds depth samples queued
// first sheds the oldest of them; pushBurst returns how many it shed.
func (r *ring) pushBurst(at time.Time, burst []wire.Sample) (shed int) {
	r.mu.Lock()
	for i := range burst {
		s := &burst[i]
		if r.n == len(r.buf) && r.n < r.depth {
			r.grow()
		}
		if r.n == len(r.buf) {
			oldest := &r.buf[r.head]
			r.shedAll++
			r.countShed(oldest.stream, r.pushed-uint64(r.n))
			r.free = append(r.free, oldest.features)
			oldest.features = nil
			r.head = (r.head + 1) % len(r.buf)
			r.n--
			shed++
		}
		slot := &r.buf[(r.head+r.n)%len(r.buf)]
		buf := r.grab(len(s.Features))
		copy(buf, s.Features)
		*slot = item{stream: s.Stream, seq: s.Seq, origin: int64(s.IngressNanos), at: at, features: buf}
		r.n++
		r.pushed++
	}
	r.mu.Unlock()
	return shed
}

// countShed charges the shed of stream's sample number pos to the first
// queued close of that stream that arrived after the sample, else to the
// stream's live incarnation. Caller must hold r.mu.
func (r *ring) countShed(stream uint32, pos uint64) {
	for i := range r.ctrls {
		if c := &r.ctrls[i]; c.stream == stream && !c.open && c.pos > pos {
			c.shed++
			return
		}
	}
	r.shedBy[stream]++
}

// control queues a stream open or close of c.stream behind every sample
// pushed so far. A close takes over its incarnation's shed count.
func (r *ring) control(c ctrl) {
	r.mu.Lock()
	c.pos = r.pushed
	if !c.open {
		c.shed = r.shedBy[c.stream]
		delete(r.shedBy, c.stream)
	}
	r.ctrls = append(r.ctrls, c)
	r.mu.Unlock()
}

// drainInto appends every queued sample and control to dst in arrival
// order and empties the ring. The samples' feature buffers are owned by
// the caller until handed back via recycle; the controls stay valid
// until the next drainInto.
func (r *ring) drainInto(dst []item) []item {
	r.mu.Lock()
	ctrls := r.ctrls
	r.ctrls, r.round = r.round[:0], ctrls
	first := r.pushed - uint64(r.n) // number of the oldest queued sample
	c := 0
	for i := 0; i < r.n; i++ {
		for ; c < len(ctrls) && ctrls[c].pos <= first+uint64(i); c++ {
			dst = append(dst, item{stream: ctrls[c].stream, ctl: &ctrls[c]})
		}
		slot := &r.buf[(r.head+i)%len(r.buf)]
		dst = append(dst, *slot)
		slot.features = nil
	}
	for ; c < len(ctrls); c++ {
		dst = append(dst, item{stream: ctrls[c].stream, ctl: &ctrls[c]})
	}
	r.head, r.n = 0, 0
	r.mu.Unlock()
	return dst
}

// recycle hands drained feature buffers back for reuse.
func (r *ring) recycle(bufs ...[]float64) {
	r.mu.Lock()
	for _, buf := range bufs {
		if buf != nil {
			r.free = append(r.free, buf)
		}
	}
	r.mu.Unlock()
}

// shedCounts returns the total shed-sample count and that of the given
// stream's live incarnation.
func (r *ring) shedCounts(stream uint32) (total, forStream uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shedAll, r.shedBy[stream]
}
