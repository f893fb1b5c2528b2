package samplelog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twosmart/internal/telemetry"
)

// segPrefix/segSuffix name segment files: seg-00000001.slog,
// seg-00000002.slog, ... — zero-padded so lexical order is append order.
const (
	segPrefix = "seg-"
	segSuffix = ".slog"
)

// segmentName returns the file name of segment index.
func segmentName(index uint64) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, index, segSuffix)
}

// segmentIndex parses a segment file name back to its index.
func segmentIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// SegmentFiles lists dir's segment files in append order.
func SegmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := segmentIndex(e.Name()); ok && !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// WriterConfig configures a sample-log Writer.
type WriterConfig struct {
	// Dir is the log directory, created if missing. Required.
	Dir string
	// SegmentBytes rotates the current segment once it reaches this size
	// (default 8 MiB; the rotation check runs per drain round, so a
	// segment may overshoot by one round's worth of records).
	SegmentBytes int64
	// MaxSegments bounds retention: when a rotation would leave more
	// than this many segments on disk the oldest are pruned (default 64,
	// negative = unbounded). The segment being written always survives.
	MaxSegments int
	// QueueDepth bounds the append ring; beyond it the oldest pending
	// record is shed — a slow disk drops log records, it never stalls
	// the caller (default 8192). The ring's storage grows to it only as
	// records queue.
	QueueDepth int
	// Telemetry, when non-nil, receives the samplelog_* families.
	Telemetry *telemetry.Registry
}

func (c WriterConfig) fill() (WriterConfig, error) {
	if c.Dir == "" {
		return c, errors.New("samplelog: empty log directory")
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 8 << 20
	}
	if c.SegmentBytes < headerLen+1 {
		return c, fmt.Errorf("samplelog: segment size %d below the %d-byte header", c.SegmentBytes, headerLen)
	}
	if c.MaxSegments == 0 {
		c.MaxSegments = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 8192
	}
	if c.QueueDepth < 1 {
		return c, fmt.Errorf("samplelog: queue depth %d below 1", c.QueueDepth)
	}
	return c, nil
}

// Stats is a Writer's lifetime accounting.
type Stats struct {
	// Appended counts records durably handed to the segment writer.
	Appended uint64 `json:"appended"`
	// Dropped counts records shed by the bounded ring or discarded after
	// a disk failure.
	Dropped uint64 `json:"dropped"`
	// Bytes counts segment bytes written (headers included).
	Bytes uint64 `json:"bytes"`
	// Segments counts segments opened over the writer's lifetime.
	Segments uint64 `json:"segments"`
	// Pruned counts segments removed by retention.
	Pruned uint64 `json:"pruned"`
}

// Writer is the durable sample log's producer half. AppendBatch is safe
// for concurrent use from any number of scoring goroutines and never
// blocks on the disk: records flow through a bounded drop-oldest ring to
// one background goroutine that encodes, writes, rotates and prunes.
type Writer struct {
	cfg WriterConfig

	mu sync.Mutex
	// buf is the circular pending queue, grown up to QueueDepth as it
	// fills; its Features point into free-list buffers.
	buf    []Record
	head   int
	n      int
	free   [][]float64
	closed bool

	kick chan struct{}
	done chan struct{}

	// writer-goroutine state
	f        *os.File
	segIndex uint64
	segBytes int64
	enc      []byte // reusable encode buffer
	err      error  // sticky disk failure

	// stats fields are atomic: AppendBatch's drop accounting runs under w.mu
	// while the writer goroutine's batch accounting does not.
	stats struct {
		appended, dropped, bytes, segments, pruned atomic.Uint64
	}

	appendedC telemetry.Counter
	droppedC  telemetry.Counter
	bytesC    telemetry.Counter
	segmentsC telemetry.Counter
	prunedC   telemetry.Counter
	errorsC   telemetry.Counter
}

// OpenWriter opens (or creates) the log directory, recovers the newest
// existing segment by truncating any torn tail at its last valid
// checksum, and starts the background writer on a fresh segment.
func OpenWriter(cfg WriterConfig) (*Writer, error) {
	filled, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filled.Dir, 0o755); err != nil {
		return nil, err
	}
	last, err := recoverDir(filled.Dir)
	if err != nil {
		return nil, err
	}
	reg := filled.Telemetry
	w := &Writer{
		cfg:       filled,
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
		segIndex:  last,
		appendedC: reg.Counter("samplelog_appended_total"),
		droppedC:  reg.Counter("samplelog_dropped_total"),
		bytesC:    reg.Counter("samplelog_bytes_total"),
		segmentsC: reg.Counter("samplelog_segments_total"),
		prunedC:   reg.Counter("samplelog_pruned_total"),
		errorsC:   reg.Counter("samplelog_write_errors_total"),
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	go w.run()
	return w, nil
}

// recoverDir truncates the newest segment's torn tail (crash recovery)
// and returns the highest segment index in use.
func recoverDir(dir string) (uint64, error) {
	paths, err := SegmentFiles(dir)
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, nil
	}
	newest := paths[len(paths)-1]
	if _, err := Recover(newest); err != nil {
		return 0, fmt.Errorf("samplelog: recovering %s: %w", newest, err)
	}
	idx, _ := segmentIndex(filepath.Base(newest))
	return idx, nil
}

// Recover scans one segment and physically truncates it at the last
// valid checksum when a torn tail is present, returning the scan stats.
// Mid-file corruption is reported, not repaired — a checksum mismatch
// that is not at the tail means the disk lied, which deserves operator
// eyes, not silent truncation.
func Recover(path string) (SegmentStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SegmentStats{}, err
	}
	st, err := DecodeSegment(data, nil)
	if err != nil {
		return st, err
	}
	if st.TornBytes > 0 {
		if err := os.Truncate(path, st.ValidBytes); err != nil {
			return st, err
		}
	}
	return st, nil
}

// AppendBatch offers records to the log under one lock acquisition — the
// scoring tap logs whole verdict chunks, and per-record locking there
// serializes the serving workers behind the log at full load. Each
// record's feature vector is copied into a recycled ring buffer, so the
// caller may reuse recs and its slices immediately. It never blocks: when
// the ring is full the oldest pending record is shed (the drop-not-block
// contract), and after Close or a disk failure the records are dropped
// outright. Reports how many records were queued.
func (w *Writer) AppendBatch(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0
	}
	for _, rec := range recs {
		w.enqueueLocked(rec)
	}
	w.mu.Unlock()
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return len(recs)
}

// enqueueLocked places one record in the ring, shedding the oldest
// pending record when QueueDepth records are pending. Caller holds w.mu.
func (w *Writer) enqueueLocked(rec Record) {
	if w.n == len(w.buf) && w.n < w.cfg.QueueDepth {
		w.grow()
	}
	if w.n == len(w.buf) {
		oldest := &w.buf[w.head]
		w.free = append(w.free, oldest.Features)
		*oldest = Record{}
		w.head = (w.head + 1) % len(w.buf)
		w.n--
		w.stats.dropped.Add(1)
		w.droppedC.Inc()
	}
	buf := w.grab(len(rec.Features))
	copy(buf, rec.Features)
	rec.Features = buf
	w.buf[(w.head+w.n)%len(w.buf)] = rec
	w.n++
}

// writerFloor is a ring array's first size.
const writerFloor = 16

// grow doubles the ring array, from writerFloor, up to QueueDepth: a
// Record holds pointers, and Go makes such an allocation resident as soon
// as it is made, so a quiet log pays for what it queued, not for its
// depth. The ring sheds, and so wraps, only once its array is at
// QueueDepth, and run hands over a fresh array with head 0, so below
// QueueDepth the pending records are buf[:n]. Caller holds w.mu.
func (w *Writer) grow() {
	buf := make([]Record, min(max(2*len(w.buf), writerFloor), w.cfg.QueueDepth))
	copy(buf, w.buf[:w.n])
	w.buf = buf
}

// grab returns a feature buffer of length n from the free list. Caller
// holds w.mu.
func (w *Writer) grab(n int) []float64 {
	if k := len(w.free); k > 0 {
		b := w.free[k-1]
		w.free = w.free[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

// run is the background writer loop: every wake-up it takes ownership of
// the full ring by swapping in a spare buffer — an O(1) critical section,
// so a large drain never stalls AppendBatch — then writes the records
// straight from the ring it took and hands their feature buffers back to
// the free list; Close's final wake-up drains the rest and returns. The
// spare starts empty and grows as the ring does.
func (w *Writer) run() {
	defer close(w.done)
	var spare []Record
	for {
		<-w.kick
		w.mu.Lock()
		closed := w.closed
		ring, head, n := w.buf, w.head, w.n
		w.buf = spare
		w.head, w.n = 0, 0
		w.mu.Unlock()

		w.writeBatch(ring, head, n)

		w.mu.Lock()
		for i := 0; i < n; i++ {
			rec := &ring[(head+i)%len(ring)]
			w.free = append(w.free, rec.Features)
			*rec = Record{}
		}
		w.mu.Unlock()
		spare = ring
		if closed {
			return
		}
	}
}

// writeBatch encodes and writes the n records of ring starting at head,
// rotating first when the current segment is over the size bound. After
// a sticky disk failure batches are discarded and counted as dropped.
func (w *Writer) writeBatch(ring []Record, head, n int) {
	if n == 0 {
		return
	}
	if w.err != nil {
		w.countDropped(n)
		return
	}
	if w.segBytes >= w.cfg.SegmentBytes {
		if err := w.rotate(); err != nil {
			w.fail(err, n)
			return
		}
	}
	w.enc = w.enc[:0]
	encoded := 0
	for i := 0; i < n; i++ {
		var err error
		w.enc, err = AppendRecord(w.enc, ring[(head+i)%len(ring)])
		if err != nil {
			// An oversized record is a caller bug; skip it, keep the log.
			w.countDropped(1)
			continue
		}
		encoded++
	}
	n, err := w.f.Write(w.enc)
	if err != nil {
		w.fail(err, encoded)
		return
	}
	w.segBytes += int64(n)
	w.stats.bytes.Add(uint64(n))
	w.bytesC.Add(uint64(n))
	w.stats.appended.Add(uint64(encoded))
	w.appendedC.Add(uint64(encoded))
}

// fail records a sticky disk failure: the current segment is closed and
// every subsequent record is dropped. The log never back-pressures the
// serving path, even when the disk is gone.
func (w *Writer) fail(err error, batch int) {
	w.err = err
	w.errorsC.Inc()
	w.countDropped(batch)
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

func (w *Writer) countDropped(n int) {
	w.stats.dropped.Add(uint64(n))
	w.droppedC.Add(uint64(n))
}

// rotate syncs and closes the current segment, opens the next one with a
// fresh header, and applies retention.
func (w *Writer) rotate() error {
	if w.f != nil {
		w.f.Sync()
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	w.segIndex++
	path := filepath.Join(w.cfg.Dir, segmentName(w.segIndex))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := AppendHeader(nil, time.Now().UnixNano())
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segBytes = int64(len(hdr))
	w.stats.bytes.Add(uint64(len(hdr)))
	w.bytesC.Add(uint64(len(hdr)))
	w.stats.segments.Add(1)
	w.segmentsC.Inc()
	w.prune()
	return nil
}

// prune applies the retention bound, removing the oldest segments beyond
// MaxSegments. Best-effort: a failed remove is retried on the next
// rotation.
func (w *Writer) prune() {
	if w.cfg.MaxSegments < 0 {
		return
	}
	paths, err := SegmentFiles(w.cfg.Dir)
	if err != nil || len(paths) <= w.cfg.MaxSegments {
		return
	}
	for _, p := range paths[:len(paths)-w.cfg.MaxSegments] {
		if os.Remove(p) == nil {
			w.stats.pruned.Add(1)
			w.prunedC.Inc()
		}
	}
}

// Close stops accepting records, drains what is queued to disk, syncs
// and closes the segment, and returns the lifetime stats plus any sticky
// disk error. Safe to call once; AppendBatch after Close drops.
func (w *Writer) Close() (Stats, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return w.snapshot(), w.err
	}
	w.closed = true
	w.mu.Unlock()
	// Wake the writer for its final drain. Non-blocking: if a kick is
	// already buffered, run is guaranteed a wake-up after closed was
	// set, and every record enqueued before the close is in the ring
	// when that drain takes the lock.
	select {
	case w.kick <- struct{}{}:
	default:
	}
	<-w.done
	if w.f != nil {
		w.f.Sync()
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.f = nil
	}
	return w.snapshot(), w.err
}

// snapshot reads the lifetime stats. Fully consistent only once the
// writer goroutine has exited (Close waits for it before calling).
func (w *Writer) snapshot() Stats {
	return Stats{
		Appended: w.stats.appended.Load(),
		Dropped:  w.stats.dropped.Load(),
		Bytes:    w.stats.bytes.Load(),
		Segments: w.stats.segments.Load(),
		Pruned:   w.stats.pruned.Load(),
	}
}
