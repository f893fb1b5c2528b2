package main

import (
	"fmt"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/cluster"
	"twosmart/internal/core"
	"twosmart/internal/monitor"
	"twosmart/internal/session"
	"twosmart/internal/wire"
)

// The ladder times each layer's public entry points in this process, on
// the workload's own inputs and at the stream and batch shape the traced
// live run observed. Each rung runs ladderReps repetitions of about
// ladderRep and reports the median repetition's cost per operation.
const (
	ladderReps = 5
	ladderRep  = 40 * time.Millisecond
)

// perOp runs fn (which performs ops operations per call) for ladderRep,
// ladderReps times, and returns the median nanoseconds per operation.
// The clock is read once per group of calls sized to take ~20µs, so
// reading it costs the cheap rungs nothing measurable.
func perOp(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	group := max(1, int(20*time.Microsecond/max(time.Since(start), 1)))
	reps := make([]float64, ladderReps)
	for r := range reps {
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < ladderRep {
			for k := 0; k < group; k++ {
				fn()
			}
			calls += group
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / float64(calls*ops)
	}
	return median(reps)
}

// perOpTimed is perOp for rungs whose setup between operations must stay
// outside the timing: fn returns the nanoseconds it measured itself.
func perOpTimed(ops int, fn func() time.Duration) float64 {
	reps := make([]float64, ladderReps)
	for r := range reps {
		var spent time.Duration
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < ladderRep {
			spent += fn()
			calls++
		}
		reps[r] = float64(spent.Nanoseconds()) / float64(calls*ops)
	}
	return median(reps)
}

// shape is what the live run tells the ladder about the traffic.
type shape struct {
	streams  int            // streams per connection
	batch    int            // observed micro-batch (samples per round), >= 1
	verdicts []wire.Verdict // delivered verdict frames
	routes   []string       // shard addresses for the routing rung
	agents   []string
	apps     []string
}

// ladderInputs is the served model and the workload's inputs. The
// anomaly rung scores env on every workload; the session rungs run the
// cascade only where the live shard does.
type ladderInputs struct {
	det     *core.Detector
	env     *anomaly.Envelope
	cascade bool
	rows    [][]float64
}

// discard is a session.Emitter that drops everything: the round rung
// times scoring and engine work, not a transport.
type discard struct{}

func (discard) Verdicts(uint32, int, []uint32, []time.Time, []core.Verdict, []float64, []monitor.Event) error {
	return nil
}
func (discard) Summary(uint32, int, monitor.Summary, uint64) error { return nil }
func (discard) Flush() error                                       { return nil }

// runLadder times every rung and returns metric name → value. spans gets
// one span per rung under parent.
func runLadder(in ladderInputs, sh shape, spans *spanLog, run string, parent uint64) (map[string]float64, error) {
	out := map[string]float64{}
	rung := func(name string, f func() error) error {
		sp := spans.begin(run, "ladder."+name, parent)
		defer sp.end()
		return f()
	}
	chunk := max(1, sh.batch/min(sh.batch, sh.streams)) // samples one stream scores per round
	chunk = min(chunk, 512)                             // serve's default -max-batch
	rows := in.rows
	row := func(i int) []float64 { return rows[i%len(rows)] }

	err := rung("wire", func() error {
		const n = 256
		samples := make([]wire.Frame, n)
		for i := range samples {
			samples[i] = wire.Sample{Stream: uint32(i % sh.streams), Seq: uint32(i), Features: row(i)}
		}
		verdicts := make([]wire.Frame, n)
		for i := range verdicts {
			v := wire.Verdict{Stream: uint32(i), Seq: uint32(i)}
			if len(sh.verdicts) > 0 {
				v = sh.verdicts[i%len(sh.verdicts)]
			}
			verdicts[i] = v
		}
		for _, c := range []struct {
			name   string
			frames []wire.Frame
		}{{"sample", samples}, {"verdict", verdicts}} {
			var buf []byte
			for _, f := range c.frames {
				var err error
				if buf, err = wire.Append(buf, f); err != nil {
					return err
				}
			}
			scratch := make([]byte, 0, len(buf)/n*2)
			out["wire."+c.name+"_encode_ns"] = perOp(n, func() {
				for _, f := range c.frames {
					scratch, _ = wire.Append(scratch[:0], f) // these frames encoded without error above
				}
			})
			var decodeErr error
			out["wire."+c.name+"_decode_ns"] = perOp(n, func() {
				for off := 0; off < len(buf); {
					_, k, err := wire.Decode(buf[off:])
					if err != nil {
						decodeErr = err
						return
					}
					off += k
				}
			})
			if decodeErr != nil {
				return fmt.Errorf("decoding %s frames: %w", c.name, decodeErr)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cenv := in.env.Compile()
	gen := session.Generation{Detector: in.det}
	if in.cascade {
		gen.Cascade, gen.CascadeThreshold = cenv, in.env.Threshold
	}
	newScoring := func() (*session.Scoring, error) {
		return session.NewScoring(session.ScoringConfig{
			Source: func() session.Generation { return gen },
			Emit:   discard{},
		})
	}
	err = rung("session", func() error {
		scoring, err := newScoring()
		if err != nil {
			return err
		}
		eng, err := session.New(session.Config{Handler: scoring})
		if err != nil {
			return err
		}
		done := make(chan struct{})
		close(done)
		for s := 0; s < sh.streams; s++ {
			eng.Open(uint32(s), fmt.Sprintf("ladder-%d", s))
		}
		if err := eng.Run(done); err != nil {
			return err
		}
		var seq uint32
		push := func() {
			for k := 0; k < sh.batch; k++ {
				eng.Push(uint32(k%sh.streams), seq, 0, time.Now(), row(int(seq)))
				seq++
			}
		}
		var runErr error
		out["session.push_ns"] = perOpTimed(sh.batch, func() time.Duration {
			start := time.Now()
			push()
			took := time.Since(start)
			if err := eng.Run(done); err != nil {
				runErr = err
			}
			return took
		})
		out["session.round_ns_per_sample"] = perOpTimed(sh.batch, func() time.Duration {
			push()
			start := time.Now()
			if err := eng.Run(done); err != nil {
				runErr = err
			}
			return time.Since(start)
		})
		if runErr != nil {
			return runErr
		}

		opener, err := newScoring()
		if err != nil {
			return err
		}
		var id uint32
		var openErr error
		out["session.open_us"] = perOpTimed(1, func() time.Duration {
			start := time.Now()
			st, err := opener.OpenStream(id, fmt.Sprintf("open-%d", id))
			took := time.Since(start)
			id++
			if err == nil {
				err = st.Close(0)
			}
			if err != nil {
				openErr = err
			}
			return took
		}) / 1e3
		return openErr
	})
	if err != nil {
		return nil, err
	}

	cd := in.det.Compile()
	verdicts := make([]core.Verdict, chunk)
	scores := make([]float64, chunk)
	batch := make([][]float64, chunk)
	for i := range batch {
		batch[i] = row(i)
	}
	err = rung("core", func() error {
		var detectErr error
		out["core.detect_ns_per_sample"] = perOp(chunk, func() {
			if err := cd.DetectScoredBatch(verdicts, scores, batch); err != nil {
				detectErr = err
			}
		})
		out["core.compile_us"] = perOp(1, func() { cd = in.det.Compile() }) / 1e3
		return detectErr
	})
	if err != nil {
		return nil, err
	}

	err = rung("monitor", func() error {
		tr, err := monitor.NewTrackerFactory(func() monitor.Scorer { return in.det.Compile() }, monitor.Config{})
		if err != nil {
			return err
		}
		events := make([]monitor.Event, chunk)
		var observeErr error
		out["monitor.observe_ns_per_sample"] = perOp(chunk, func() {
			if err := tr.ObserveScoredBatch("ladder", events, scores); err != nil {
				observeErr = err
			}
		})
		return observeErr
	})
	if err != nil {
		return nil, err
	}

	err = rung("anomaly", func() error {
		var short int
		for _, fv := range rows {
			if cenv.Score(fv) <= in.env.Threshold {
				short++
			}
		}
		out["anomaly.short_frac"] = float64(short) / float64(len(rows))
		var sink float64
		out["anomaly.score_ns_per_sample"] = perOp(len(rows), func() {
			for _, fv := range rows {
				sink += cenv.Score(fv)
			}
		})
		_ = sink
		return nil
	})
	if err != nil {
		return nil, err
	}

	err = rung("cluster", func() error {
		ring := cluster.BuildRing(sh.routes, 0)
		keys := make([]string, 0, len(sh.agents)*len(sh.apps))
		for _, a := range sh.agents {
			for _, app := range sh.apps {
				keys = append(keys, cluster.RouteKey(a, app))
			}
		}
		var sink int
		out["cluster.route_ns"] = perOp(len(keys), func() {
			for _, k := range keys {
				sink += len(ring.Route(k))
			}
		})
		_ = sink
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
