package session

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twosmart/internal/wire"
)

func TestRingDropOldest(t *testing.T) {
	r := newRing(3)
	now := time.Now()
	for seq := uint32(0); seq < 5; seq++ {
		shed := r.push(1, seq, 0, now, []float64{float64(seq)})
		if want := seq >= 3; shed != want {
			t.Fatalf("push %d: shed=%v, want %v", seq, shed, want)
		}
	}
	r.control(ctrl{stream: 1})
	r.control(ctrl{stream: 2})
	got := flatten(r, r.drain())
	if len(got) != 5 {
		t.Fatalf("drained %s, want 3 samples and 2 closes", describe(got))
	}
	// Seqs 0 and 1 were shed; the three newest survive in order.
	for i, f := range got[:3] {
		if want := uint32(i + 2); f.ctl != nil || f.seq != want {
			t.Fatalf("entry %d is %s, want seq %d", i, describe(got[i:i+1]), want)
		}
		if f.features[0] != float64(f.seq) {
			t.Fatalf("entry %d: features %v do not match seq %d", i, f.features, f.seq)
		}
	}
	if c1, c2 := got[3].ctl, got[4].ctl; c1.stream != 1 || c1.shed != 2 || c2.stream != 2 || c2.shed != 0 {
		t.Fatalf("closes %s, want stream 1 with 2 shed, then stream 2 with none", describe(got[3:]))
	}
}

func TestRingShedCountsPerStream(t *testing.T) {
	r := newRing(1)
	now := time.Now()
	var sheds []bool
	sheds = append(sheds, r.push(1, 0, 0, now, []float64{0}))
	sheds = append(sheds, r.push(2, 0, 0, now, []float64{0})) // sheds stream 1's sample
	sheds = append(sheds, r.push(2, 1, 0, now, []float64{0})) // sheds stream 2's
	r.control(ctrl{stream: 1})
	r.control(ctrl{stream: 2})
	d := r.drain()
	if !reflect.DeepEqual(sheds, []bool{false, true, true}) || d.ctrls[0].shed != 1 || d.ctrls[1].shed != 1 {
		t.Fatalf("pushes shed %v, closes %d and %d; want 2 in all, 1 and 1", sheds, d.ctrls[0].shed, d.ctrls[1].shed)
	}
}

// TestRingRecycles pins the steady-state allocation story: once both
// sides exist, a push→drain cycle reuses them instead of allocating.
func TestRingRecycles(t *testing.T) {
	r := newRing(4)
	now := time.Now()
	fv := []float64{1, 2, 3, 4}
	warm := func() {
		for seq := uint32(0); seq < 4; seq++ {
			r.push(1, seq, 0, now, fv)
		}
		r.drain()
	}
	warm()
	warm()
	if allocs := testing.AllocsPerRun(50, warm); allocs > 0 {
		t.Fatalf("warm push/drain cycle allocates %.1f times, want 0", allocs)
	}
	// Pushing a copy must not alias the caller's slice.
	r.push(1, 0, 0, now, fv)
	fv[0] = 99
	d := r.drain()
	if _, got := d.sample(0); got[0] != 1 {
		t.Fatalf("ring aliased the caller's buffer: got %v", got)
	}
}

// TestItemHoldsNoPointers pins that a queued sample holds no pointer, so
// neither does a side's item array: the GC does not scan it, and Go backs
// its pages only once pushes write them. A field of pointer kind would
// make a depth-sized array resident again.
func TestItemHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: item must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("item", reflect.TypeOf(item{}))
}

// TestRingWidthMismatchPanics pins that the first sample queued fixes
// the ring's width: the read loop refuses any other width, so a push of
// one is a caller's bug and panics with both widths in its message.
func TestRingWidthMismatchPanics(t *testing.T) {
	r := newRing(8)
	r.push(1, 0, 0, time.Now(), []float64{1, 2, 3, 4})
	r.drain() // the width outlives the side that fixed it
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "3 features") || !strings.Contains(msg, "width 4") {
			t.Fatalf("a 3-feature push into a 4-wide ring panicked with %q, want both widths named", msg)
		}
	}()
	r.push(1, 1, 0, time.Now(), []float64{1, 2, 3})
}

// TestNewReservesNoQueue pins that QueueDepth is a bound, not a
// reservation: an engine built at the default depth allocates what one
// at depth 16 does, a few KiB, and no item array.
func TestNewReservesNoQueue(t *testing.T) {
	h := newFakeHandler()
	perNew := func(depth int) uint64 {
		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := New(Config{Handler: h, QueueDepth: depth}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, deep := perNew(16), perNew(4096)
	if deep > small+1<<10 || small > 4<<10 {
		t.Fatalf("New allocates %d B at QueueDepth 4096 and %d B at 16, want the same few KiB", deep, small)
	}
}

// TestRingConcurrentProducerConsumer hammers the ring with parallel
// producers against a draining consumer (the real reader/worker
// topology, multiplied) and checks, under -race, that no drained row is
// overwritten before the next drain while the producers fill the other
// side, and that the shed accounting balances: every pushed sample is
// either consumed intact or counted shed, per stream, and the sheds the
// pushes report add up to those the streams' closes report.
func TestRingConcurrentProducerConsumer(t *testing.T) {
	const producers, perProducer = 4, 5000
	r := newRing(64)

	var wg sync.WaitGroup
	var shedReported atomic.Uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(stream uint32) {
			defer wg.Done()
			for seq := uint32(0); seq < perProducer; seq++ {
				// Encode (stream, seq) into the payload so the consumer can
				// detect a row overwritten or mixed up with another.
				if r.push(stream, seq, int64(seq), time.Time{}, []float64{float64(stream), float64(seq), 7}) {
					shedReported.Add(1)
				}
			}
		}(uint32(p))
	}
	producersDone := make(chan struct{})
	go func() { wg.Wait(); close(producersDone) }()

	consumedBy := make(map[uint32]uint64, producers)
	shedBy := make(map[uint32]uint64, producers)
	intact := func(d *drained, when string) {
		for i := 0; i < d.n; i++ {
			it, fv := d.sample(i)
			if len(fv) != 3 || fv[0] != float64(it.stream) || fv[1] != float64(it.seq) ||
				fv[2] != 7 || it.origin != int64(it.seq) {
				t.Fatalf("%s: stream %d seq %d origin %d: row %v", when, it.stream, it.seq, it.origin, fv)
			}
		}
	}
	var last drained
	consume := func() {
		// The last drain's rows must be as drained, after the producers
		// ran on while they were held.
		intact(&last, "held until the next drain")
		last = r.drain()
		intact(&last, "drained")
		for i := 0; i < last.n; i++ {
			it, _ := last.sample(i)
			consumedBy[it.stream]++
		}
		for _, c := range last.ctrls {
			shedBy[c.stream] += c.shed
		}
		runtime.Gosched()
	}
	running := true
	for running {
		select {
		case <-producersDone:
			running = false
		default:
		}
		consume()
	}
	for p := uint32(0); p < producers; p++ {
		r.control(ctrl{stream: p})
	}
	consume() // final drain: nothing is in flight anymore

	var per uint64
	for p := uint32(0); p < producers; p++ {
		if got := consumedBy[p] + shedBy[p]; got != perProducer {
			t.Fatalf("stream %d: consumed %d + shed %d = %d, want %d",
				p, consumedBy[p], shedBy[p], got, perProducer)
		}
		per += shedBy[p]
	}
	if total := shedReported.Load(); total != per {
		t.Fatalf("pushes reported %d sheds, the closes %d", total, per)
	}
}

// TestRingBurstMatchesSinglePushes pins that pushing samples as one burst
// leaves the ring exactly as pushing them one by one does: the same
// drained order, features and control positions, the same total and
// per-incarnation shed counts, and the same number of sheds reported.
func TestRingBurstMatchesSinglePushes(t *testing.T) {
	// A step is a burst of samples (stream, seq; features derive from
	// both) or, when ctl is set, a stream open or close.
	type step struct {
		ctl     *ctrl
		stream  uint32
		samples [][2]uint32
	}
	burst := func(samples ...[2]uint32) step { return step{samples: samples} }
	open := func(stream uint32) step { return step{ctl: &ctrl{open: true, app: "app"}, stream: stream} }
	closeStream := func(stream uint32) step { return step{ctl: &ctrl{}, stream: stream} }
	cases := []struct {
		name  string
		depth int
		shed  int // samples shed in all
		steps []step
	}{
		{"fits", 8, 0, []step{open(1), open(2), burst([2]uint32{1, 0}, [2]uint32{2, 0}, [2]uint32{1, 1})}},
		{"burst overflows the ring", 3, 4, []step{open(1), burst([2]uint32{1, 0}, [2]uint32{1, 1}, [2]uint32{1, 2},
			[2]uint32{1, 3}, [2]uint32{1, 4}, [2]uint32{1, 5}, [2]uint32{1, 6})}},
		{"overflow across streams", 4, 3, []step{burst([2]uint32{1, 0}, [2]uint32{2, 0}, [2]uint32{1, 1}),
			burst([2]uint32{2, 1}, [2]uint32{3, 0}, [2]uint32{1, 2}, [2]uint32{2, 2})}},
		// The second burst sheds samples queued before the close: countShed
		// charges them to the close, not to the reopened incarnation.
		{"close between bursts of one stream", 4, 2, []step{open(1), burst([2]uint32{1, 0}, [2]uint32{1, 1}, [2]uint32{1, 2}),
			closeStream(1), open(1), burst([2]uint32{1, 0}, [2]uint32{1, 1}, [2]uint32{1, 2})}},
		{"close before a later shed of another stream", 2, 3, []step{burst([2]uint32{1, 0}, [2]uint32{2, 0}),
			closeStream(2), burst([2]uint32{1, 1}, [2]uint32{1, 2}, [2]uint32{1, 3})}},
	}
	at := time.Unix(1, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bursty, single := newRing(tc.depth), newRing(tc.depth)
			var shedBursty, shedSingle int
			for _, st := range tc.steps {
				if st.ctl != nil {
					c := *st.ctl
					c.stream = st.stream
					bursty.control(c)
					single.control(c)
					continue
				}
				samples := make([]wire.Sample, len(st.samples))
				for i, s := range st.samples {
					samples[i] = wire.Sample{Stream: s[0], Seq: s[1], IngressNanos: uint64(10*s[0] + s[1]),
						Features: []float64{float64(s[0]), float64(s[1])}}
				}
				shedBursty += bursty.pushBurst(at, samples)
				for _, s := range samples {
					if single.push(s.Stream, s.Seq, int64(s.IngressNanos), at, s.Features) {
						shedSingle++
					}
				}
			}
			if shedBursty != tc.shed || shedSingle != tc.shed {
				t.Errorf("burst push reported %d sheds, single pushes %d, want %d", shedBursty, shedSingle, tc.shed)
			}
			if !reflect.DeepEqual(bursty.shedBy, single.shedBy) {
				t.Errorf("shed counts: burst %v, single %v", bursty.shedBy, single.shedBy)
			}
			got, want := flatten(bursty, bursty.drain()), flatten(single, single.drain())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drained:\n burst  %s\n single %s", describe(got), describe(want))
			}
		})
	}
}

// flat is a drained sample, with its features and its receive time in
// unix nanoseconds, or a control.
type flat struct {
	ctl         *ctrl
	stream, seq uint32
	origin, at  int64
	features    []float64
}

// flatten lists the samples and controls of r's drain d in the order
// Engine.round walks them.
func flatten(r *ring, d drained) []flat {
	var out []flat
	for i, c := 0, 0; ; i++ {
		for end := d.ctrlsBefore(c, i); c < end; c++ {
			out = append(out, flat{ctl: &d.ctrls[c]})
		}
		if i == d.n {
			return out
		}
		it, fv := d.sample(i)
		at := r.t0.Add(time.Duration(it.at)).UnixNano()
		out = append(out, flat{stream: it.stream, seq: it.seq, origin: it.origin, at: at, features: fv})
	}
}

// describe renders drained samples and controls for a failure message.
func describe(entries []flat) string {
	var b strings.Builder
	for _, f := range entries {
		if f.ctl != nil {
			fmt.Fprintf(&b, "[ctl %d open=%v pos=%d shed=%d] ", f.ctl.stream, f.ctl.open, f.ctl.pos, f.ctl.shed)
			continue
		}
		fmt.Fprintf(&b, "[%d/%d %v] ", f.stream, f.seq, f.features)
	}
	return b.String()
}
