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
