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
	at     time.Time // when a sample was received
	pos    uint64    // a control's position: the samples pushed before it
	inc    int
}

// ringModel is drop-oldest in its plainest form: every queued sample and
// control in one slice, in arrival order, and a shed deletes the oldest
// sample from it.
type ringModel struct {
	depth  int
	queue  []modelEntry
	queued int // samples in queue
	pushed uint64
	closes [modelStreams]int
	shedOf map[[2]int]uint64 // sheds of each (stream, incarnation)
}

func (m *ringModel) push(stream, seq uint32, at time.Time) (shed bool) {
	if m.queued == m.depth {
		i := slices.IndexFunc(m.queue, func(e modelEntry) bool { return !e.ctl })
		m.shedOf[[2]int{int(m.queue[i].stream), m.queue[i].inc}]++
		m.queue = slices.Delete(m.queue, i, i+1)
		m.queued--
		shed = true
	}
	m.queue = append(m.queue, modelEntry{stream: stream, seq: seq, at: at, inc: m.closes[stream]})
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

// modelFeatures is the feature vector, width long, of stream's sample
// seq.
func modelFeatures(stream, seq uint32, width int) []float64 {
	fv := make([]float64, width)
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
	opCheck
	opCount
)

// runRingProgram drives a ring of the given depth and a ringModel through
// the same program, every sample width features long, and fails t at the
// first difference: in the sheds a push reports, in the drained samples
// and controls (order, content, control positions, a close's shed
// count), or in the live-incarnation shed counts. Every drained sample,
// its item and its row, must stay as pushed until the next drain; a
// check step and every drain check that the last drain's still are.
// After every step a side is unallocated or holds depth items and rows.
func runRingProgram(t *testing.T, depth, width int, prog []byte) {
	r := newRing(depth)
	m := &ringModel{depth: depth, shedOf: make(map[[2]int]uint64)}
	var seqs [modelStreams]uint32
	// Each step that pushes receives its samples at its own time.
	start := time.Now()
	var at time.Time
	// sample builds stream's next sample and queues it in the model.
	sample := func(stream uint32) (s wire.Sample, shed bool) {
		seq := seqs[stream]
		seqs[stream]++
		shed = m.push(stream, seq, at)
		return wire.Sample{Stream: stream, Seq: seq, IngressNanos: uint64(seq), Features: modelFeatures(stream, seq, width)}, shed
	}
	// The last drain and the model's samples in it, valid until the next.
	var last drained
	var lastWant []modelEntry
	// held fails t unless every sample of the last drain, its item and its
	// row, is still as it was pushed.
	held := func(pc int, when string) {
		for i, e := range lastWant {
			it, fv := last.sample(i)
			if it.stream != e.stream || it.seq != e.seq || it.origin != int64(e.seq) ||
				!r.t0.Add(time.Duration(it.at)).Equal(e.at) ||
				!slices.Equal(fv, modelFeatures(e.stream, e.seq, width)) || cap(fv) != width {
				t.Fatalf("step %d, %s: drained sample %d is %d/%d origin %d at %d %v (cap %d), want %d/%d at %v",
					pc, when, i, it.stream, it.seq, it.origin, it.at, fv, cap(fv), e.stream, e.seq, e.at.Sub(start))
			}
		}
	}
	for pc := 0; pc < len(prog); {
		op := prog[pc] % opCount
		arg := func(i int) int {
			if pc+i < len(prog) {
				return int(prog[pc+i])
			}
			return 0
		}
		at = start.Add(time.Duration(pc) * time.Microsecond)
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
			held(pc, "before the next drain")
			last = r.drain()
			got := flatten(r, last)
			want := m.queue
			m.queue, m.queued = nil, 0
			if len(got) != len(want) {
				t.Fatalf("step %d: drained %d entries, want %d: %s", pc, len(got), len(want), describe(got))
			}
			lastWant = lastWant[:0]
			for i, f := range got {
				e := want[i]
				if (f.ctl != nil) != e.ctl {
					t.Fatalf("step %d: entry %d is %s, want stream %d ctl=%v", pc, i, describe(got[i:i+1]), e.stream, e.ctl)
				}
				if !e.ctl {
					lastWant = append(lastWant, e)
					continue
				}
				wantShed := uint64(0)
				if !e.open {
					wantShed = m.shedOf[[2]int{int(e.stream), e.inc}]
				}
				if f.ctl.stream != e.stream || f.ctl.open != e.open || f.ctl.pos != e.pos || f.ctl.shed != wantShed {
					t.Fatalf("step %d: control %d is %s, want stream %d open=%v pos=%d shed=%d",
						pc, i, describe(got[i:i+1]), e.stream, e.open, e.pos, wantShed)
				}
			}
			held(pc, "drained")
			pc++
		case opCheck:
			held(pc, "held")
			pc++
		}
		if r.n != m.queued {
			t.Fatalf("step %d: ring holds %d samples, want %d", pc, r.n, m.queued)
		}
		for _, sd := range []side{r.in, r.out} {
			if sd.items != nil && (len(sd.items) != depth || len(sd.rows) != depth*width) {
				t.Fatalf("step %d: a side of %d items and %d rows at depth %d, width %d", pc, len(sd.items), len(sd.rows), depth, width)
			}
		}
		for s := uint32(0); s < modelStreams; s++ {
			if live := r.shedBy[s]; live != m.live(s) {
				t.Fatalf("step %d: stream %d live shed count %d, want %d", pc, s, live, m.live(s))
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
			op = opCheck
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
// depths of 1, small and large, powers of two or not; widths of 1 to 4;
// bursts across streams; opens and closes; drains and checks of the
// drained rows, often or rarely.
func TestRingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []int{1, 2, 3, 15, 16, 17, 31, 64, 100, 257} {
		for _, drain := range []float64{0.02, 0.1, 0.3} {
			for k := range 3 {
				runRingProgram(t, depth, 1+(depth+k)%4, ringProgram(rng, 300, drain))
			}
		}
	}
}

// FuzzRing runs runRingProgram on arbitrary programs, depths from 1 to
// 300 and, from the program's first byte, widths from 1 to 4. The seed
// corpus is in testdata/fuzz/FuzzRing.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, depth uint16, prog []byte) {
		width := 1
		if len(prog) > 0 {
			width, prog = 1+int(prog[0])%4, prog[1:]
		}
		runRingProgram(t, 1+int(depth)%300, width, prog)
	})
}
