package session

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeHandler records every engine callback so tests can pin the
// engine's ordering and accounting without any scoring machinery.
type fakeHandler struct {
	mu      sync.Mutex
	streams map[uint32]*fakeStream
	openErr error
	procErr error
	rounds  int
}

func newFakeHandler() *fakeHandler {
	return &fakeHandler{streams: make(map[uint32]*fakeStream)}
}

func (h *fakeHandler) OpenStream(id uint32, app string) (Stream, error) {
	if h.openErr != nil {
		return nil, h.openErr
	}
	st := &fakeStream{h: h, id: id, app: app}
	h.mu.Lock()
	h.streams[id] = st
	h.mu.Unlock()
	return st, nil
}

func (h *fakeHandler) RoundEnd() error {
	h.mu.Lock()
	h.rounds++
	h.mu.Unlock()
	return nil
}

func (h *fakeHandler) stream(id uint32) *fakeStream {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.streams[id]
}

type fakeStream struct {
	h   *fakeHandler
	id  uint32
	app string

	mu       sync.Mutex
	seqs     []uint32
	ats      []time.Time
	origins  []int64
	features [][]float64 // copied: batch rows are valid only during Process
	closed   bool
	shed     uint64
}

func (st *fakeStream) Process(b Batch) error {
	if st.h.procErr != nil {
		return st.h.procErr
	}
	if len(b.Seqs) != b.Len() || len(b.Ats) != b.Len() {
		return fmt.Errorf("ragged batch: %d samples, %d seqs, %d ats", b.Len(), len(b.Seqs), len(b.Ats))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range b.Samples {
		st.seqs = append(st.seqs, b.Seqs[i])
		st.ats = append(st.ats, b.Ats[i])
		st.origins = append(st.origins, b.Origins[i])
		cp := make([]float64, len(b.Samples[i]))
		copy(cp, b.Samples[i])
		st.features = append(st.features, cp)
	}
	return nil
}

func (st *fakeStream) Close(shed uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	st.shed = shed
	return nil
}

// run drives the engine through exactly one final round: everything
// already pushed/enqueued is handled in arrival order, then Run returns.
func run(t *testing.T, e *Engine) {
	t.Helper()
	done := make(chan struct{})
	close(done)
	if err := e.Run(done); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEngineOpenProcessClose(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	e.Open(2, "appB")
	for i := 0; i < 5; i++ {
		e.Push(1, uint32(i), 0, time.Now(), []float64{float64(i), 1})
		e.Push(2, uint32(i), 0, time.Now(), []float64{float64(i), 2})
	}
	e.Close(1)
	e.Close(2)
	run(t, e)

	for _, id := range []uint32{1, 2} {
		st := h.stream(id)
		if st == nil {
			t.Fatalf("stream %d never opened", id)
		}
		if !st.closed {
			t.Fatalf("stream %d not closed", id)
		}
		if len(st.seqs) != 5 {
			t.Fatalf("stream %d processed %d samples, want 5", id, len(st.seqs))
		}
		for i, seq := range st.seqs {
			if seq != uint32(i) {
				t.Fatalf("stream %d seq[%d] = %d, want %d (order not preserved)", id, i, seq, i)
			}
			if st.features[i][0] != float64(i) || st.features[i][1] != float64(id) {
				t.Fatalf("stream %d sample %d corrupted: %v", id, i, st.features[i])
			}
		}
	}
	if h.rounds == 0 {
		t.Fatal("RoundEnd never called")
	}
}

// TestEngineKeepsAtAndOrigin pins that a sample's receive time and
// upstream ingress stamp come through the ring as pushed: Batch.Ats[i] is
// Equal to the pushed time, and keeps its monotonic reading when it had
// one, so a verdict's latency is measured on the monotonic clock; and
// Batch.Origins[i] is the pushed origin.
func TestEngineKeepsAtAndOrigin(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ats := []time.Time{now, now.Add(-3 * time.Millisecond), now.Add(time.Hour), now.Round(0), time.Unix(1e9, 123)}
	e.Open(1, "appA")
	for i, at := range ats {
		e.Push(1, uint32(i), int64(1000*i+7), at, []float64{1})
	}
	e.Close(1)
	run(t, e)
	st := h.stream(1)
	if len(st.ats) != len(ats) {
		t.Fatalf("processed %d samples, want %d", len(st.ats), len(ats))
	}
	for i, at := range ats {
		got := st.ats[i]
		if !got.Equal(at) || st.origins[i] != int64(1000*i+7) {
			t.Errorf("sample %d: at %v origin %d, want %v and %d", i, got, st.origins[i], at, 1000*i+7)
		}
		if monotonic := strings.Contains(at.String(), " m="); monotonic && !strings.Contains(got.String(), " m=") {
			t.Errorf("sample %d: at %v lost the monotonic reading of %v", i, got, at)
		}
	}
}

func TestEngineRejects(t *testing.T) {
	h := newFakeHandler()
	var mu sync.Mutex
	var got []string
	e, err := New(Config{
		Handler: h,
		OnReject: func(id uint32, app string, reason RejectReason) {
			mu.Lock()
			got = append(got, fmt.Sprintf("%d/%s/%s", id, app, reason))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	e.Open(1, "appB")                         // duplicate stream id
	e.Open(2, "appA")                         // duplicate app
	e.Push(9, 0, 0, time.Now(), []float64{1}) // unknown stream
	e.Close(7)                                // unknown close
	run(t, e)

	want := []string{
		"1/appB/duplicate stream",
		"2/appA/duplicate app",
		"9//sample for unopened stream",
		"7//close of unopened stream",
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("rejects = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reject[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if st := h.stream(1); st == nil || st.app != "appA" {
		t.Fatal("original stream 1 should survive the duplicate opens")
	}
}

func TestEngineShedAccounting(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	shed := 0
	for i := 0; i < 10; i++ {
		if e.Push(1, uint32(i), 0, time.Now(), []float64{float64(i)}) {
			shed++
		}
	}
	if shed != 6 {
		t.Fatalf("Push reported %d sheds, want 6 (depth 4, 10 pushes)", shed)
	}
	e.Close(1)
	run(t, e)

	st := h.stream(1)
	if st.shed != 6 {
		t.Fatalf("Close got shed=%d, want 6", st.shed)
	}
	// The survivors are the newest 4, in order.
	if len(st.seqs) != 4 {
		t.Fatalf("processed %d samples, want 4", len(st.seqs))
	}
	for i, seq := range st.seqs {
		if want := uint32(6 + i); seq != want {
			t.Fatalf("survivor[%d] = seq %d, want %d (drop-oldest violated)", i, seq, want)
		}
	}
}

func TestEngineHandlerErrors(t *testing.T) {
	boom := errors.New("boom")

	h := newFakeHandler()
	h.openErr = boom
	e, _ := New(Config{Handler: h})
	e.Open(1, "appA")
	done := make(chan struct{})
	close(done)
	if err := e.Run(done); !errors.Is(err, boom) {
		t.Fatalf("Run after open error = %v, want %v", err, boom)
	}

	h = newFakeHandler()
	h.procErr = boom
	e, _ = New(Config{Handler: h})
	e.Open(1, "appA")
	e.Push(1, 0, 0, time.Now(), []float64{1})
	if err := e.Run(done); !errors.Is(err, boom) {
		t.Fatalf("Run after process error = %v, want %v", err, boom)
	}
}

// TestEngineConcurrentProducer runs the real two-goroutine topology: a
// reader pushing samples and controls against a running worker loop.
// Every sample must be either processed in order or shed — never both,
// never lost.
func TestEngineConcurrentProducer(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	const streams, perStream = 4, 2000
	readerDone := make(chan struct{})
	workerErr := make(chan error, 1)
	go func() { workerErr <- e.Run(readerDone) }()

	for s := uint32(0); s < streams; s++ {
		e.Open(s, fmt.Sprintf("app%d", s))
	}
	var wg sync.WaitGroup
	for s := uint32(0); s < streams; s++ {
		wg.Add(1)
		go func(s uint32) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				e.Push(s, uint32(i), 0, time.Now(), []float64{float64(s), float64(i)})
			}
		}(s)
	}
	wg.Wait()
	for s := uint32(0); s < streams; s++ {
		e.Close(s)
	}
	close(readerDone)
	if err := <-workerErr; err != nil {
		t.Fatalf("Run: %v", err)
	}

	for s := uint32(0); s < streams; s++ {
		st := h.stream(s)
		if st == nil || !st.closed {
			t.Fatalf("stream %d missing or not closed", s)
		}
		if got := uint64(len(st.seqs)) + st.shed; got != perStream {
			t.Fatalf("stream %d: processed %d + shed %d = %d, want %d",
				s, len(st.seqs), st.shed, got, perStream)
		}
		last := -1
		for i, seq := range st.seqs {
			if int(seq) <= last {
				t.Fatalf("stream %d: seq %d at position %d not increasing (prev %d)", s, seq, i, last)
			}
			last = int(seq)
			if st.features[i][0] != float64(s) || st.features[i][1] != float64(seq) {
				t.Fatalf("stream %d sample %d corrupted: %v", s, i, st.features[i])
			}
		}
	}
}

// hookHandler runs onOpen after each stream open, which is the moment a
// round has taken its control snapshot but not yet drained the ring.
type hookHandler struct {
	*fakeHandler
	onOpen func(id uint32)
}

func (h *hookHandler) OpenStream(id uint32, app string) (Stream, error) {
	st, err := h.fakeHandler.OpenStream(id, app)
	h.onOpen(id)
	return st, err
}

// TestEngineOpenAfterSnapshot pins the first-sample race: an Open and
// its first sample that land while a round is running are processed in
// the next round, and a Close queued ahead of that Open applies after
// its stream's sample is processed.
func TestEngineOpenAfterSnapshot(t *testing.T) {
	var rejects []string
	h := &hookHandler{fakeHandler: newFakeHandler()}
	e, err := New(Config{Handler: h, OnReject: func(id uint32, app string, reason RejectReason) {
		rejects = append(rejects, fmt.Sprintf("%d/%s", id, reason))
	}})
	if err != nil {
		t.Fatal(err)
	}
	h.onOpen = func(id uint32) {
		if id != 1 {
			return
		}
		e.Push(1, 0, 0, time.Now(), []float64{1})
		e.Close(1)
		e.Open(2, "appB")
		e.Push(2, 0, 0, time.Now(), []float64{2})
	}
	e.Open(1, "appA")
	for i := 0; i < 2; i++ {
		if err := e.round(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rejects) != 0 {
		t.Fatalf("rejects = %v, want none", rejects)
	}
	for _, id := range []uint32{1, 2} {
		if st := h.stream(id); st == nil || len(st.seqs) != 1 {
			t.Fatalf("stream %d: %+v, want one processed sample", id, st)
		}
	}
	if !h.stream(1).closed {
		t.Fatal("stream 1's close, queued ahead of stream 2's open, was not applied")
	}
	if h.stream(2).closed {
		t.Fatal("stream 2 closed without a Close")
	}
}

// recordRejects returns an OnReject hook collecting "id/app/reason"
// strings, and the slice it appends to. Rounds run on the test goroutine.
func recordRejects() (func(uint32, string, RejectReason), *[]string) {
	var got []string
	return func(id uint32, app string, reason RejectReason) {
		got = append(got, fmt.Sprintf("%d/%s/%s", id, app, reason))
	}, &got
}

// TestEngineSameRoundCloseReopen pins arrival order across a close and
// two reopens in one round: closing stream 1 frees both its id and its
// app for the opens queued behind the close, and each sample reaches the
// stream open at its position — never the closed one.
func TestEngineSameRoundCloseReopen(t *testing.T) {
	onReject, rejects := recordRejects()
	h := newFakeHandler()
	e, err := New(Config{Handler: h, OnReject: onReject})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	if err := e.round(); err != nil {
		t.Fatal(err)
	}
	closedA := h.stream(1)

	e.Close(1)
	e.Open(2, "appA")
	e.Push(2, 0, 0, time.Now(), []float64{2})
	e.Open(1, "appB")
	e.Push(1, 0, 0, time.Now(), []float64{1})
	run(t, e)

	if len(*rejects) != 0 {
		t.Fatalf("rejects = %v, want none", *rejects)
	}
	if !closedA.closed || len(closedA.seqs) != 0 {
		t.Fatalf("closed appA stream: closed=%v processed %d samples, want closed with 0", closedA.closed, len(closedA.seqs))
	}
	for id, want := range map[uint32]struct {
		app     string
		feature float64
	}{2: {"appA", 2}, 1: {"appB", 1}} {
		st := h.stream(id)
		if st == closedA || st.app != want.app || len(st.features) != 1 || st.features[0][0] != want.feature {
			t.Fatalf("stream %d: app %q processed %v, want app %q with [[%v]]", id, st.app, st.features, want.app, want.feature)
		}
	}
}

// TestEngineCloseFreesApp pins the engine's app index across rounds:
// while app X is open a second open of X is refused, and once X's stream
// closes, X opens again under a new id in a later round.
func TestEngineCloseFreesApp(t *testing.T) {
	onReject, rejects := recordRejects()
	h := newFakeHandler()
	e, err := New(Config{Handler: h, OnReject: onReject})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appX")
	e.Open(2, "appY")
	if err := e.round(); err != nil {
		t.Fatal(err)
	}
	e.Open(3, "appX") // X is still open on stream 1
	e.Close(1)
	if err := e.round(); err != nil {
		t.Fatal(err)
	}
	e.Open(4, "appX")
	e.Push(4, 0, 0, time.Now(), []float64{4})
	run(t, e)

	if want := []string{"3/appX/duplicate app"}; len(*rejects) != 1 || (*rejects)[0] != want[0] {
		t.Fatalf("rejects = %v, want %v", *rejects, want)
	}
	if st := h.stream(1); !st.closed {
		t.Fatal("stream 1 not closed")
	}
	if h.stream(3) != nil {
		t.Fatal("stream 3 opened while appX was open on stream 1")
	}
	if st := h.stream(4); st == nil || st.app != "appX" || len(st.seqs) != 1 {
		t.Fatalf("stream 4: %+v, want appX reopened with its sample", st)
	}
}

// TestEngineSampleAfterClose pins that a sample queued behind its
// stream's Close in the same round is rejected, not processed.
func TestEngineSampleAfterClose(t *testing.T) {
	onReject, rejects := recordRejects()
	h := newFakeHandler()
	e, err := New(Config{Handler: h, OnReject: onReject})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	if err := e.round(); err != nil {
		t.Fatal(err)
	}
	e.Push(1, 0, 0, time.Now(), []float64{1})
	e.Close(1)
	e.Push(1, 1, 0, time.Now(), []float64{1})
	run(t, e)

	st := h.stream(1)
	if !st.closed || len(st.seqs) != 1 || st.seqs[0] != 0 {
		t.Fatalf("stream 1: closed=%v seqs %v, want closed after seq 0 only", st.closed, st.seqs)
	}
	if want := []string{"1//sample for unopened stream"}; len(*rejects) != 1 || (*rejects)[0] != want[0] {
		t.Fatalf("rejects = %v, want %v", *rejects, want)
	}
}

// TestEngineShedPerIncarnation pins shed accounting to the stream
// incarnation: a reused id reports only its own sheds, a shed that lands
// after a Close still counts toward the incarnation that Close ends, and
// a closed incarnation leaves no per-stream count behind.
func TestEngineShedPerIncarnation(t *testing.T) {
	h := newFakeHandler()
	e, err := New(Config{Handler: h, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Open(1, "appA")
	for i := 0; i < 5; i++ {
		e.Push(1, uint32(i), 0, time.Now(), []float64{1})
	}
	e.Close(1)
	run(t, e)
	first := h.stream(1)
	if first.shed != 3 {
		t.Fatalf("first incarnation shed=%d, want 3", first.shed)
	}

	e.Open(1, "appA")
	e.Push(1, 0, 0, time.Now(), []float64{1})
	e.Close(1)
	e.Open(2, "appB")
	e.Push(2, 0, 0, time.Now(), []float64{2})
	e.Push(2, 1, 0, time.Now(), []float64{2}) // sheds stream 1's sample, queued before its Close
	e.Close(2)
	run(t, e)
	second := h.stream(1)
	if second == first || second.shed != 1 || len(second.seqs) != 0 {
		t.Fatalf("second incarnation shed=%d processed %d, want shed=1 processed 0", second.shed, len(second.seqs))
	}
	if st := h.stream(2); st.shed != 0 || len(st.seqs) != 2 {
		t.Fatalf("stream 2 shed=%d processed %d, want 0 and 2", st.shed, len(st.seqs))
	}
	// The closes took their incarnations' counts: a third incarnation
	// that sheds nothing reports none.
	e.Open(1, "appA")
	e.Close(1)
	run(t, e)
	if third := h.stream(1); third == second || third.shed != 0 {
		t.Fatalf("third incarnation shed=%d, want 0", third.shed)
	}
}
