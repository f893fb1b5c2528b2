package session

import (
	"fmt"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/monitor"
)

// discardEmitter drops all output, so a benchmark times the engine and
// scoring work rather than a transport.
type discardEmitter struct{}

func (discardEmitter) Verdicts(uint32, int, []uint32, []time.Time, []core.Verdict, []float64, []monitor.Event) error {
	return nil
}
func (discardEmitter) Summary(uint32, int, monitor.Summary, uint64) error { return nil }
func (discardEmitter) Flush() error                                       { return nil }

// testDetector trains a small Common-4 detector and returns it with the
// corpus feature rows it was trained on.
func testDetector(tb testing.TB) (*core.Detector, [][]float64) {
	tb.Helper()
	data, err := corpus.Collect(corpus.Config{Scale: 0.001, MinPerClass: 24, Budget: 30000, Seed: 7, Omniscient: true})
	if err != nil {
		tb.Fatal(err)
	}
	if data, err = data.SelectByName(core.CommonFeatures); err != nil {
		tb.Fatal(err)
	}
	det, err := core.Train(data, core.TrainConfig{Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	rows := make([][]float64, data.Len())
	for i, ins := range data.Instances {
		rows[i] = ins.Features
	}
	return det, rows
}

// BenchmarkEngineRound times one engine round through the real Scoring
// handler with a discarding emitter, at the two round shapes the serving
// benchmark sees: 512 open streams with 35 samples per round (steady
// 10 ms traffic, about one sample per touched stream) and 16 streams with
// 190 (overload, a dozen per stream). Samples go to the streams
// round-robin. One op is one round; pushing its samples is untimed.
func BenchmarkEngineRound(b *testing.B) {
	det, rows := testDetector(b)
	for _, sh := range []struct{ streams, samples int }{{512, 35}, {16, 190}} {
		b.Run(fmt.Sprintf("streams=%d/samples=%d", sh.streams, sh.samples), func(b *testing.B) {
			h, err := NewScoring(ScoringConfig{
				Source: func() Generation { return Generation{Detector: det} },
				Emit:   discardEmitter{},
			})
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(Config{Handler: h})
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < sh.streams; s++ {
				e.Open(uint32(s), fmt.Sprintf("app-%d", s))
			}
			done := make(chan struct{})
			close(done)
			if err := e.Run(done); err != nil {
				b.Fatal(err)
			}
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < sh.samples; k++ {
					e.Push(uint32(next%sh.streams), uint32(next/sh.streams), 0, time.Now(), rows[next%len(rows)])
					next++
				}
				b.StartTimer()
				if err := e.Run(done); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.samples), "ns/sample")
		})
	}
}

// engineSink keeps BenchmarkEngineNew's engines live, so the compiler
// cannot drop the allocations it measures.
var engineSink *Engine

// BenchmarkEngineNew times building one connection's engine at the
// default queue depth. Its B/op is what a connection pays for its ingress
// queue before it queues a sample: QueueDepth is a bound, not a
// reservation, so it must not scale with the depth.
func BenchmarkEngineNew(b *testing.B) {
	h := newFakeHandler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Handler: h})
		if err != nil {
			b.Fatal(err)
		}
		engineSink = e
	}
}

// BenchmarkEngineOpenClose times one stream open and close on a warm
// engine through the real Scoring handler, with 16 or 512 other streams
// open: the engine's table checks and the handler's per-stream set-up,
// as a round applies an Open and a Close. The generation's detector is
// compiled before the timer starts, so an op compiles nothing, and its
// cost must not grow with the number of open streams.
func BenchmarkEngineOpenClose(b *testing.B) {
	det, _ := testDetector(b)
	for _, open := range []int{16, 512} {
		b.Run(fmt.Sprintf("streams=%d", open), func(b *testing.B) {
			h, err := NewScoring(ScoringConfig{
				Source: func() Generation { return Generation{Detector: det} },
				Emit:   discardEmitter{},
			})
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(Config{Handler: h})
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < open; s++ {
				if err := e.openStream(uint32(s), fmt.Sprintf("app-%d", s)); err != nil {
					b.Fatal(err)
				}
			}
			id, app := uint32(open), fmt.Sprintf("app-%d", open)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.openStream(id, app); err != nil {
					b.Fatal(err)
				}
				if err := e.closeStream(id, 0, time.Time{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
