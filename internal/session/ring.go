package session

import (
	"fmt"
	"sync"
	"time"

	"twosmart/internal/wire"
)

// item is one queued ingress sample: which stream it belongs to, the
// client's sequence number, the upstream-tier ingress stamp (unix nanos
// from the gateway, 0 when the agent sent directly) and the local
// ingress time in nanoseconds since the ring's t0 (for the end-to-end
// verdict latency histogram; t0 is a time.Now reading, so an at with a
// monotonic reading comes back with one). Its features are the row of
// the same index in its side's arena. item holds no pointers
// (TestItemHoldsNoPointers), so the GC never scans a side, and Go backs
// a side's pages only as pushes write them.
type item struct {
	stream, seq uint32
	origin, at  int64
}

// side is one half of a ring's storage: depth item slots and, for slot
// k, row k of a depth × width feature arena.
type side struct {
	items []item
	rows  []float64
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
// rather than blocking the reader or buffering without bound. Each shed
// is charged to its stream incarnation, whose close reports it in the
// StreamSummary. Stream controls queue by value under the same mutex,
// stamped with their position among the samples, and are never shed.
//
// The ring has two sides. Pushes copy samples into the in side, a
// circular queue; a drain hands that side to the worker and gives the
// pushers the other, so a drain copies nothing and the drained rows stay
// put until the next drain. The first push into a side allocates it at
// depth, yet depth stays a bound, not a reservation: a side holds no
// pointers, so only the pages pushes have written are resident, and a
// drain restarts the queue at slot 0.
type ring struct {
	mu     sync.Mutex
	depth  int       // the most samples queued at once; past it, the oldest is shed
	width  int       // features per sample, fixed by the first sample queued
	t0     time.Time // the first push's clock reading; an item's at counts from it
	in     side      // the side pushes fill: n items from slot head, wrapping
	head   int
	n      int
	pushed uint64 // samples ever pushed: the number of the next one
	ctrls  []ctrl // queued controls, in arrival order
	// out and round are the last drain's side and controls. Only the
	// worker drains, so they stay put for its round; the next drain hands
	// them back to the pushers.
	out    side
	round  []ctrl
	shedBy map[uint32]uint64 // sheds of each stream's live incarnation
}

func newRing(depth int) *ring {
	return &ring{depth: depth, shedBy: make(map[uint32]uint64)}
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
// Every sample must have as many features as the first one the ring
// queued. The read loop refuses a sample of another width, so one here
// is a caller's bug, and pushBurst panics.
func (r *ring) pushBurst(at time.Time, burst []wire.Sample) (shed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.t0.IsZero() {
		r.t0 = time.Now()
	}
	ns := int64(at.Sub(r.t0))
	for i := range burst {
		s := &burst[i]
		if w := len(s.Features); w != r.width {
			if r.in.items != nil || r.out.items != nil {
				panic(fmt.Sprintf("session: a sample of %d features pushed into a ring of width %d", w, r.width))
			}
			r.width = w
		}
		if r.in.items == nil {
			r.in = side{items: make([]item, r.depth), rows: make([]float64, r.depth*r.width)}
		}
		if r.n == r.depth {
			r.countShed(r.in.items[r.head].stream, r.pushed-uint64(r.n))
			r.head = (r.head + 1) % r.depth
			r.n--
			shed++
		}
		k := (r.head + r.n) % r.depth
		r.in.items[k] = item{stream: s.Stream, seq: s.Seq, origin: int64(s.IngressNanos), at: ns}
		copy(r.in.rows[k*r.width:(k+1)*r.width], s.Features)
		r.n++
		r.pushed++
	}
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

// drained is what one drain handed the worker, valid until the next
// drain: n samples in arrival order from slot head of a side, the first
// of them numbered first, and the controls queued with them, each before
// the sample its pos numbers.
type drained struct {
	side
	width, head, n int
	first          uint64
	ctrls          []ctrl
}

// drain empties the ring into what it returns: the in side goes to the
// worker and the last drain's side comes back for the pushers to refill,
// and so do the control arrays. Only the worker drains.
func (r *ring) drain() drained {
	r.mu.Lock()
	d := drained{side: r.in, width: r.width, head: r.head, n: r.n, first: r.pushed - uint64(r.n), ctrls: r.ctrls}
	r.in, r.out = r.out, r.in
	r.ctrls, r.round = r.round[:0], r.ctrls
	r.head, r.n = 0, 0
	r.mu.Unlock()
	return d
}

// ctrlsBefore returns the end of the run of controls, from c on, that
// precede sample i: those queued before it was pushed. At i = n it is
// every control left.
func (d *drained) ctrlsBefore(c, i int) int {
	for c < len(d.ctrls) && d.ctrls[c].pos <= d.first+uint64(i) {
		c++
	}
	return c
}

// sample returns drained sample i and its features. The row's capacity
// ends with it, so an append to it cannot reach the next row.
func (d *drained) sample(i int) (*item, []float64) {
	k := (d.head + i) % len(d.items)
	return &d.items[k], d.rows[k*d.width : (k+1)*d.width : (k+1)*d.width]
}
