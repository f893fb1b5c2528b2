package session

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"twosmart/internal/wire"
)

// modelStreams is how many stream ids a ring program uses.
const modelStreams = 4

// modelEntry is one sample or control in ringModel's arrival-order list.
// inc numbers the incarnation of stream the entry belongs to: the closes
// of stream queued before it. A close belongs to the incarnation it ends.
type modelEntry struct {
	ctl    bool
	open   bool
	stream uint32
	seq    uint32
	pos    uint64 // a control's position: the samples pushed before it
	inc    int
}

// ringModel is drop-oldest in its plainest form: every queued sample and
// control in one slice, in arrival order, and a shed deletes the oldest
// sample from it.
type ringModel struct {
	depth   int
	queue   []modelEntry
	queued  int // samples in queue
	pushed  uint64
	closes  [modelStreams]int
	shedOf  map[[2]int]uint64 // sheds of each (stream, incarnation)
	shedAll uint64
}

func (m *ringModel) push(stream, seq uint32) (shed bool) {
	if m.queued == m.depth {
		i := slices.IndexFunc(m.queue, func(e modelEntry) bool { return !e.ctl })
		m.shedOf[[2]int{int(m.queue[i].stream), m.queue[i].inc}]++
		m.shedAll++
		m.queue = slices.Delete(m.queue, i, i+1)
		m.queued--
		shed = true
	}
	m.queue = append(m.queue, modelEntry{stream: stream, seq: seq, inc: m.closes[stream]})
	m.queued++
	m.pushed++
	return shed
}

func (m *ringModel) control(stream uint32, open bool) {
	m.queue = append(m.queue, modelEntry{ctl: true, open: open, stream: stream, pos: m.pushed, inc: m.closes[stream]})
	if !open {
		m.closes[stream]++
	}
}

// live returns the sheds of stream's live incarnation.
func (m *ringModel) live(stream uint32) uint64 {
	return m.shedOf[[2]int{int(stream), m.closes[stream]}]
}

// modelFeatures is the feature vector of stream's sample seq. Its length
// depends on the stream, so recycled buffers are sometimes too short.
func modelFeatures(stream, seq uint32) []float64 {
	fv := make([]float64, 1+stream%3)
	for i := range fv {
		fv[i] = float64(stream)*1e6 + float64(seq)*10 + float64(i)
	}
	return fv
}

// Ring program opcodes: each takes one byte, and a burst, push, open or
// close one argument byte more (a burst two).
const (
	opBurst = iota
	opPush
	opOpen
	opClose
	opDrain
	opRecycle
	opCount
)

// runRingProgram drives a ring of the given depth and a ringModel through
// the same program and fails t at the first difference: in the sheds a
// push reports, in the drained samples and controls (order, content,
// control positions, a close's shed count), or in the total and
// live-incarnation shed counts. After every step the ring's item array
// must stay within depth and within twice the most samples ever queued
// (or ringFloor). Drained feature buffers are held until a recycle step,
// and must not change while they are held.
func runRingProgram(t *testing.T, depth int, prog []byte) {
	r := newRing(depth)
	m := &ringModel{depth: depth, shedOf: make(map[[2]int]uint64)}
	var seqs [modelStreams]uint32
	at := time.Unix(7, 0)
	type held struct {
		stream, seq uint32
		features    []float64
	}
	var holding []held
	var drained []item
	peak := 0
	// sample builds stream's next sample and queues it in the model.
	sample := func(stream uint32) (s wire.Sample, shed bool) {
		seq := seqs[stream]
		seqs[stream]++
		shed = m.push(stream, seq)
		peak = max(peak, m.queued)
		return wire.Sample{Stream: stream, Seq: seq, IngressNanos: uint64(seq), Features: modelFeatures(stream, seq)}, shed
	}
	for pc := 0; pc < len(prog); {
		op := prog[pc] % opCount
		arg := func(i int) int {
			if pc+i < len(prog) {
				return int(prog[pc+i])
			}
			return 0
		}
		switch op {
		case opBurst:
			// Sample j goes to stream spread + j*(spread/4): one stream, or
			// several interleaved.
			n, spread := 1+arg(1)%64, arg(2)
			burst := make([]wire.Sample, n)
			wantShed := 0
			for j := range burst {
				var shed bool
				if burst[j], shed = sample(uint32(spread+j*(spread>>2)) % modelStreams); shed {
					wantShed++
				}
			}
			if shed := r.pushBurst(at, burst); shed != wantShed {
				t.Fatalf("step %d: a burst of %d leaving %d queued (depth %d) shed %d, want %d",
					pc, n, m.queued, depth, shed, wantShed)
			}
			pc += 3
		case opPush:
			s, wantShed := sample(uint32(arg(1)) % modelStreams)
			if shed := r.push(s.Stream, s.Seq, int64(s.IngressNanos), at, s.Features); shed != wantShed {
				t.Fatalf("step %d: a push leaving %d queued (depth %d) shed=%v, want %v",
					pc, m.queued, depth, shed, wantShed)
			}
			pc += 2
		case opOpen, opClose:
			stream := uint32(arg(1)) % modelStreams
			r.control(ctrl{stream: stream, open: op == opOpen, app: "app"})
			m.control(stream, op == opOpen)
			pc += 2
		case opDrain:
			drained = r.drainInto(drained[:0])
			want := m.queue
			m.queue, m.queued = nil, 0
			if len(drained) != len(want) {
				t.Fatalf("step %d: drained %d items, want %d: %s", pc, len(drained), len(want), describe(drained))
			}
			for i, it := range drained {
				e := want[i]
				if it.stream != e.stream || (it.ctl != nil) != e.ctl {
					t.Fatalf("step %d: item %d is %s, want stream %d ctl=%v", pc, i, describe(drained[i:i+1]), e.stream, e.ctl)
				}
				if e.ctl {
					wantShed := uint64(0)
					if !e.open {
						wantShed = m.shedOf[[2]int{int(e.stream), e.inc}]
					}
					if it.ctl.open != e.open || it.ctl.pos != e.pos || it.ctl.shed != wantShed {
						t.Fatalf("step %d: control %d is %s, want open=%v pos=%d shed=%d",
							pc, i, describe(drained[i:i+1]), e.open, e.pos, wantShed)
					}
					continue
				}
				if it.seq != e.seq || it.origin != int64(e.seq) || !it.at.Equal(at) ||
					!slices.Equal(it.features, modelFeatures(e.stream, e.seq)) {
					t.Fatalf("step %d: sample %d is %s, want %d/%d", pc, i, describe(drained[i:i+1]), e.stream, e.seq)
				}
				holding = append(holding, held{it.stream, it.seq, it.features})
			}
			pc++
		case opRecycle:
			for _, h := range holding {
				if !slices.Equal(h.features, modelFeatures(h.stream, h.seq)) {
					t.Fatalf("step %d: held buffer of %d/%d changed to %v: the ring reused it", pc, h.stream, h.seq, h.features)
				}
				r.recycle(h.features)
			}
			holding = holding[:0]
			pc++
		}
		if r.n != m.queued {
			t.Fatalf("step %d: ring holds %d samples, want %d", pc, r.n, m.queued)
		}
		if len(r.buf) > depth || len(r.buf) > max(ringFloor, 2*peak) {
			t.Fatalf("step %d: item array of %d at depth %d, with at most %d samples ever queued", pc, len(r.buf), depth, peak)
		}
		for s := uint32(0); s < modelStreams; s++ {
			total, live := r.shedCounts(s)
			if total != m.shedAll || live != m.live(s) {
				t.Fatalf("step %d: stream %d shed counts (total %d, live %d), want (%d, %d)",
					pc, s, total, live, m.shedAll, m.live(s))
			}
		}
	}
}

// ringProgram returns a random program of n steps. drain is each step's
// chance to drain, so a low value lets the queue reach a large depth.
func ringProgram(rng *rand.Rand, n int, drain float64) []byte {
	var prog []byte
	for range n {
		var op byte
		switch p := rng.Float64(); {
		case p < drain:
			op = opDrain
		case p < drain+0.05:
			op = opRecycle
		case p < drain+0.12:
			op = opOpen
		case p < drain+0.19:
			op = opClose
		case p < drain+0.4:
			op = opPush
		default:
			op = opBurst
		}
		prog = append(prog, op)
		switch op {
		case opBurst:
			prog = append(prog, byte(rng.Intn(256)), byte(rng.Intn(256)))
		case opPush, opOpen, opClose:
			prog = append(prog, byte(rng.Intn(256)))
		}
	}
	return prog
}

// TestRingModel checks the ring against ringModel on random programs:
// depths of 1, around the first array size and across several doublings,
// powers of two or not; bursts across streams; opens and closes; drains
// and recycles, often or rarely.
func TestRingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []int{1, 2, 3, 15, 16, 17, 31, 64, 100, 257} {
		for _, drain := range []float64{0.02, 0.1, 0.3} {
			for range 3 {
				runRingProgram(t, depth, ringProgram(rng, 300, drain))
			}
		}
	}
}

// FuzzRing runs runRingProgram on arbitrary programs and depths from 1 to
// 300. The seed corpus is in testdata/fuzz/FuzzRing.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, depth uint16, prog []byte) {
		runRingProgram(t, 1+int(depth)%300, prog)
	})
}
