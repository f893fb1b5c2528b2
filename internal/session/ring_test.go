package session

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
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
	got := r.drainInto(nil)
	if len(got) != 3 {
		t.Fatalf("drained %d items, want 3", len(got))
	}
	// Seqs 0 and 1 were shed; the three newest survive in order.
	for i, it := range got {
		if want := uint32(i + 2); it.seq != want {
			t.Fatalf("item %d: seq %d, want %d", i, it.seq, want)
		}
		if it.features[0] != float64(it.seq) {
			t.Fatalf("item %d: features %v do not match seq %d", i, it.features, it.seq)
		}
	}
	total, forStream := r.shedCounts(1)
	if total != 2 || forStream != 2 {
		t.Fatalf("shedCounts = (%d, %d), want (2, 2)", total, forStream)
	}
	if _, other := r.shedCounts(2); other != 0 {
		t.Fatalf("stream 2 shed count = %d, want 0", other)
	}
}

func TestRingShedCountsPerStream(t *testing.T) {
	r := newRing(1)
	now := time.Now()
	r.push(1, 0, 0, now, []float64{0})
	r.push(2, 0, 0, now, []float64{0}) // sheds stream 1's sample
	r.push(2, 1, 0, now, []float64{0}) // sheds stream 2's
	total, s1 := r.shedCounts(1)
	_, s2 := r.shedCounts(2)
	if total != 2 || s1 != 1 || s2 != 1 {
		t.Fatalf("total=%d s1=%d s2=%d, want 2/1/1", total, s1, s2)
	}
}

// TestRingRecycles pins the steady-state allocation story: once warm, the
// push→drain→recycle cycle reuses feature buffers instead of allocating.
func TestRingRecycles(t *testing.T) {
	r := newRing(4)
	now := time.Now()
	fv := []float64{1, 2, 3, 4}
	var dst []item
	warm := func() {
		for seq := uint32(0); seq < 4; seq++ {
			r.push(1, seq, 0, now, fv)
		}
		dst = r.drainInto(dst[:0])
		for _, it := range dst {
			r.recycle(it.features)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(50, warm); allocs > 0 {
		t.Fatalf("warm push/drain/recycle cycle allocates %.1f times, want 0", allocs)
	}
	// Pushing a copy must not alias the caller's slice.
	r.push(1, 0, 0, now, fv)
	fv[0] = 99
	if got := r.drainInto(nil)[0].features[0]; got != 1 {
		t.Fatalf("ring aliased the caller's buffer: got %v", got)
	}
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
// topology, multiplied) and checks, under -race, that the free-list
// recycling never hands two live items the same buffer and that the shed
// accounting balances: every pushed sample is either consumed intact or
// counted shed, per stream.
func TestRingConcurrentProducerConsumer(t *testing.T) {
	const producers, perProducer = 4, 5000
	r := newRing(64)

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(stream uint32) {
			defer wg.Done()
			for seq := uint32(0); seq < perProducer; seq++ {
				// Encode (stream, seq) into the payload so the consumer can
				// detect cross-item buffer corruption.
				r.push(stream, seq, 0, time.Time{}, []float64{float64(stream), float64(seq), 7})
			}
		}(uint32(p))
	}
	producersDone := make(chan struct{})
	go func() { wg.Wait(); close(producersDone) }()

	consumedBy := make(map[uint32]uint64, producers)
	var items []item
	consume := func() {
		items = r.drainInto(items[:0])
		for _, it := range items {
			if len(it.features) != 3 || it.features[0] != float64(it.stream) ||
				it.features[1] != float64(it.seq) || it.features[2] != 7 {
				t.Errorf("stream %d seq %d: corrupted payload %v (free-list buffer shared?)",
					it.stream, it.seq, it.features)
			}
			consumedBy[it.stream]++
			r.recycle(it.features)
		}
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
	consume() // final drain: nothing is in flight anymore

	for p := uint32(0); p < producers; p++ {
		_, shed := r.shedCounts(p)
		if got := consumedBy[p] + shed; got != perProducer {
			t.Fatalf("stream %d: consumed %d + shed %d = %d, want %d",
				p, consumedBy[p], shed, got, perProducer)
		}
	}
	total, _ := r.shedCounts(0)
	var per uint64
	for p := uint32(0); p < producers; p++ {
		_, shed := r.shedCounts(p)
		per += shed
	}
	if total != per {
		t.Fatalf("total shed %d != sum of per-stream sheds %d", total, per)
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
			if !reflect.DeepEqual(bursty.shedBy, single.shedBy) || bursty.shedAll != single.shedAll {
				t.Errorf("shed counts: burst %d %v, single %d %v", bursty.shedAll, bursty.shedBy, single.shedAll, single.shedBy)
			}
			got, want := bursty.drainInto(nil), single.drainInto(nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drained:\n burst  %s\n single %s", describe(got), describe(want))
			}
		})
	}
}

// describe renders drained items for a failure message.
func describe(items []item) string {
	var b strings.Builder
	for _, it := range items {
		if it.ctl != nil {
			fmt.Fprintf(&b, "[ctl %d open=%v pos=%d shed=%d] ", it.stream, it.ctl.open, it.ctl.pos, it.ctl.shed)
			continue
		}
		fmt.Fprintf(&b, "[%d/%d %v] ", it.stream, it.seq, it.features)
	}
	return b.String()
}
