package samplelog

import (
	"testing"
	"time"
)

// benchWriter opens a writer sized so the measured loop never rotates
// (rotation opens files, which allocates), warms the free list, and
// returns a one-record batch to append: the shape of a one-sample chunk
// from the scoring tap.
func benchWriter(b testing.TB, dir string) (*Writer, []Record) {
	b.Helper()
	w, err := OpenWriter(WriterConfig{Dir: dir, SegmentBytes: 1 << 30, QueueDepth: 4096})
	if err != nil {
		b.Fatal(err)
	}
	rec := testRecord(1)
	rec.Features = make([]float64, 64)
	for i := range rec.Features {
		rec.Features[i] = float64(i) * 1.5
	}
	// Warm up: cycle enough records through the ring that the free list
	// and encode buffer have both reached steady-state size.
	recs := []Record{rec}
	for i := 0; i < 8192; i++ {
		w.AppendBatch(recs)
	}
	time.Sleep(50 * time.Millisecond)
	return w, recs
}

// BenchmarkSampleLogAppend measures the serving tier's cost of logging
// one scored sample through AppendBatch, the call the scoring tap makes.
// The benchgate allocs/op entry holds this at zero: steady state recycles
// feature buffers through the free list, so the hot path never allocates.
func BenchmarkSampleLogAppend(b *testing.B) {
	w, recs := benchWriter(b, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.AppendBatch(recs)
	}
	b.StopTimer()
	if _, err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// TestAppendZeroAlloc pins the drop-not-block contract's other half in a
// plain test so `go test` catches an allocating append without the bench
// gate: at steady state AppendBatch must not allocate.
func TestAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation forces escapes the real hot path does not have")
	}
	w, recs := benchWriter(t, t.TempDir())
	defer w.Close()
	allocs := testing.AllocsPerRun(2000, func() { w.AppendBatch(recs) })
	// The background drain goroutine runs concurrently and its steady
	// state is also allocation-free, but give scheduling noise a hair of
	// slack rather than flake CI.
	if allocs > 0.01 {
		t.Fatalf("AppendBatch allocates %.3f allocs/op, want 0", allocs)
	}
}
