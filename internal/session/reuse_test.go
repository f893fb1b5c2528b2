package session

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/monitor"
)

// recordEmitter keeps every verdict and summary the scoring handler
// emits, in emit order. It is called on the engine's worker goroutine
// only; read it once Run has returned.
type recordEmitter struct {
	verdicts  []emitted
	summaries []emittedSummary
}

type emitted struct {
	id      uint32
	version int
	seq     uint32
	verdict core.Verdict
	score   float64
	event   monitor.Event
}

type emittedSummary struct {
	id      uint32
	version int
	sum     monitor.Summary
	shed    uint64
}

func (r *recordEmitter) Verdicts(id uint32, version int, seqs []uint32, _ []time.Time,
	verdicts []core.Verdict, scores []float64, events []monitor.Event) error {
	for i := range verdicts {
		r.verdicts = append(r.verdicts, emitted{id, version, seqs[i], verdicts[i], scores[i], events[i]})
	}
	return nil
}

func (r *recordEmitter) Summary(id uint32, version int, sum monitor.Summary, shed uint64) error {
	r.summaries = append(r.summaries, emittedSummary{id, version, sum, shed})
	return nil
}

func (r *recordEmitter) Flush() error { return nil }

// of returns the verdicts emitted for stream id.
func (r *recordEmitter) of(id uint32) []emitted {
	var out []emitted
	for _, v := range r.verdicts {
		if v.id == id {
			out = append(out, v)
		}
	}
	return out
}

// scoringEngine builds an engine over the real Scoring handler, serving
// det as version 1.
func scoringEngine(t *testing.T, det *core.Detector, emit Emitter) *Engine {
	t.Helper()
	h, err := NewScoring(ScoringConfig{
		Source: func() Generation { return Generation{Detector: det, Version: 1} },
		Emit:   emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestStreamLifetimeAllocs pins that a warm connection serves a whole
// stream lifetime without allocating: the open through the ring, 100
// samples at 1 or at 3 per round, and the close, with 256 other streams
// open on the real Scoring handler. The lifetime before the measured
// ones warms the free lists and the micro-batch slices.
func TestStreamLifetimeAllocs(t *testing.T) {
	det, rows := testDetector(t)
	for _, perRound := range []int{1, 3} {
		t.Run(fmt.Sprintf("per-round=%d", perRound), func(t *testing.T) {
			e := scoringEngine(t, det, discardEmitter{})
			const others = 256
			for s := 0; s < others; s++ {
				e.Open(uint32(s), fmt.Sprintf("app-%d", s))
			}
			round := func() {
				if err := e.round(); err != nil {
					t.Fatal(err)
				}
			}
			round()
			id, app := uint32(others), fmt.Sprintf("app-%d", others)
			at := time.Now()
			lifetime := func() {
				e.Open(id, app)
				round()
				for seq := 0; seq < 100; seq++ {
					e.Push(id, uint32(seq), 0, at, rows[seq%len(rows)])
					if seq%perRound == perRound-1 {
						round()
					}
				}
				e.Close(id)
				round()
			}
			lifetime()
			if allocs := testing.AllocsPerRun(20, lifetime); allocs != 0 {
				t.Fatalf("a warm stream lifetime (100 samples, %d per round) allocates %.1f times, want 0", perRound, allocs)
			}
		})
	}
}

// TestStreamReuseIsInvisible pins that a stream opened on a closed
// stream's records reports exactly what it would on fresh ones. App A
// raises its alarm on malware-scoring samples and closes; app B opens in
// the same round, takes A's engine entry and scoring record, and streams
// a mix of samples over later rounds too. B's verdicts, events and
// summary must equal those of a fresh engine given B's samples alone: its
// sample index starts at 0, its alarm starts clear and its EWMA starts
// from its first score.
func TestStreamReuseIsInvisible(t *testing.T) {
	det, rows := testDetector(t)
	cd := det.Compile()
	var malware, mixed [][]float64
	for _, fv := range rows {
		score, err := cd.MalwareScore(fv)
		if err != nil {
			t.Fatal(err)
		}
		if score > 0.9 && len(malware) < 8 {
			malware = append(malware, fv)
		}
	}
	if len(malware) < 8 {
		t.Fatalf("only %d training rows score above 0.9", len(malware))
	}
	mixed = append(mixed, rows[:16]...)
	mixed = append(mixed, malware[:4]...)

	// streamB pushes B's samples, the first half into the round given,
	// the rest in later rounds of three.
	streamB := func(t *testing.T, e *Engine, first func()) {
		t.Helper()
		half := len(mixed) / 2
		for i, fv := range mixed[:half] {
			e.Push(2, uint32(i), 0, time.Time{}, fv)
		}
		first()
		for i := half; i < len(mixed); i++ {
			e.Push(2, uint32(i), 0, time.Time{}, mixed[i])
			if i%3 == 2 {
				if err := e.round(); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.Close(2)
		if err := e.round(); err != nil {
			t.Fatal(err)
		}
	}

	reused := &recordEmitter{}
	e := scoringEngine(t, det, reused)
	e.Open(1, "appA")
	for i, fv := range malware {
		e.Push(1, uint32(i), 0, time.Time{}, fv)
	}
	if err := e.round(); err != nil {
		t.Fatal(err)
	}
	if a := reused.of(1); len(a) != len(malware) || !a[len(a)-1].event.Alarm {
		t.Fatalf("app A: verdicts %+v; want %d, the last with its alarm raised", a, len(malware))
	}
	entryA, recordA := e.streams[1], e.streams[1].h
	e.Close(1)
	e.Open(2, "appB")
	streamB(t, e, func() {
		if err := e.round(); err != nil {
			t.Fatal(err)
		}
		if st := e.streams[2]; st != entryA || st.h != recordA {
			t.Fatal("app B, opened in the round that closed app A, did not take A's entry and scoring record")
		}
	})

	fresh := &recordEmitter{}
	f := scoringEngine(t, det, fresh)
	f.Open(2, "appB")
	streamB(t, f, func() {
		if err := f.round(); err != nil {
			t.Fatal(err)
		}
	})

	got, want := reused.of(2), fresh.of(2)
	if len(got) != len(mixed) || !reflect.DeepEqual(got, want) {
		t.Fatalf("app B on reused records:\n%+v\nwant, as on fresh ones:\n%+v", got, want)
	}
	if ev := got[0].event; ev.Sample != 0 || ev.Alarm || ev.Smoothed != got[0].score {
		t.Fatalf("app B's first event %+v, want sample 0, alarm clear, EWMA = its score %v", ev, got[0].score)
	}
	if len(reused.summaries) != 2 || len(fresh.summaries) != 1 ||
		!reflect.DeepEqual(reused.summaries[1], fresh.summaries[0]) {
		t.Fatalf("summaries on reused records %+v, on fresh ones %+v", reused.summaries, fresh.summaries)
	}
	if sa := reused.summaries[0]; sa.id != 1 || sa.sum.App != "appA" || sa.sum.Alarms != 1 {
		t.Fatalf("app A's summary %+v, want one alarm", sa)
	}
}

// fateEmitter counts each stream's verdicts and closes the count with
// the stream's summary: one fate per closed incarnation, in emit order.
// Like recordEmitter it runs on the worker goroutine only.
type fateEmitter struct {
	since map[uint32]uint64 // verdicts since each id's last summary
	fates []fate
}

type fate struct {
	id                     uint32
	verdicts, scored, shed uint64
}

func (f *fateEmitter) Verdicts(id uint32, _ int, _ []uint32, _ []time.Time,
	verdicts []core.Verdict, _ []float64, _ []monitor.Event) error {
	f.since[id] += uint64(len(verdicts))
	return nil
}

func (f *fateEmitter) Summary(id uint32, _ int, sum monitor.Summary, shed uint64) error {
	f.fates = append(f.fates, fate{id, f.since[id], uint64(sum.Samples), shed})
	delete(f.since, id)
	return nil
}

func (f *fateEmitter) Flush() error { return nil }

// TestEngineChurnOneFate churns 1,000 stream incarnations through one
// engine while Run drains it, with ids and app names reused across
// incarnations and a ring small enough to shed. Every incarnation must
// get exactly one summary, and its verdicts plus its shed samples must
// equal the samples pushed to it. Under -race it also checks that
// reused records pass between rounds without a data race.
func TestEngineChurnOneFate(t *testing.T) {
	det, rows := testDetector(t)
	emit := &fateEmitter{since: make(map[uint32]uint64)}
	h, err := NewScoring(ScoringConfig{
		Source: func() Generation { return Generation{Detector: det, Version: 1} },
		Emit:   emit,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rejects []string // written by the worker, read after Run returns
	e, err := New(Config{Handler: h, QueueDepth: 16, OnReject: func(id uint32, app string, reason RejectReason) {
		rejects = append(rejects, fmt.Sprintf("%d/%s/%s", id, app, reason))
	}})
	if err != nil {
		t.Fatal(err)
	}
	readerDone := make(chan struct{})
	workerErr := make(chan error, 1)
	go func() { workerErr <- e.Run(readerDone) }()

	// Incarnation i reopens id i%8 under the app name closed longest ago,
	// of nine, so names move between ids. Then every open stream gets one
	// to four samples, so incarnations of several ids share rounds.
	// pushed[id][k] counts the samples pushed to id's k-th incarnation.
	const slots, incarnations = 8, 1000
	var names []string // app names not open, oldest close first
	for n := 0; n <= slots; n++ {
		names = append(names, fmt.Sprintf("app-%d", n))
	}
	apps := make([]string, slots) // the app each id is open under
	pushed := make([][]uint64, slots)
	for i := 0; i < incarnations; i++ {
		id := i % slots
		if i >= slots {
			e.Close(uint32(id))
			names = append(names, apps[id])
		}
		apps[id], names = names[0], names[1:]
		e.Open(uint32(id), apps[id])
		pushed[id] = append(pushed[id], 0)
		for s := 0; s < min(i+1, slots); s++ {
			k := len(pushed[s]) - 1
			for j := 0; j < 1+(i+s)%4; j++ {
				e.Push(uint32(s), uint32(pushed[s][k]), 0, time.Now(), rows[(i+j)%len(rows)])
				pushed[s][k]++
			}
		}
	}
	for id := uint32(0); id < slots; id++ {
		e.Close(id)
	}
	close(readerDone)
	if err := <-workerErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rejects) != 0 {
		t.Fatalf("rejects %v, want none", rejects)
	}

	next := make([]int, slots) // per id, the incarnation its next summary ends
	for _, f := range emit.fates {
		k := next[f.id]
		if k == len(pushed[f.id]) {
			t.Fatalf("stream %d: a summary beyond its %d incarnations", f.id, k)
		}
		if f.verdicts+f.shed != pushed[f.id][k] || f.scored != f.verdicts {
			t.Fatalf("stream %d incarnation %d: %d verdicts + %d shed (summary: %d scored), want %d pushed",
				f.id, k, f.verdicts, f.shed, f.scored, pushed[f.id][k])
		}
		next[f.id]++
	}
	for id, p := range pushed {
		if next[id] != len(p) {
			t.Fatalf("stream %d: %d summaries for %d incarnations", id, next[id], len(p))
		}
	}
}
