// Command smartdetect demonstrates the run-time detection flow end to end:
// it trains a 2SMaRT detector restricted to the four Common HPC events
// (exactly what a four-register machine can collect in one run), then
// profiles a stream of previously unseen applications — one single run
// each, no multiplexing — and prints the per-sample verdicts alongside the
// measured per-app detection latency (min/mean/p99 of the compiled
// detector's Detect).
//
// Usage:
//
//	smartdetect -apps 12 -scale 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"twosmart"
	"twosmart/internal/cli"
	"twosmart/internal/hpc"
	"twosmart/internal/microarch"
	"twosmart/internal/sandbox"
	"twosmart/internal/telemetry"
	"twosmart/internal/workload"
)

var app = cli.New("smartdetect")

func main() {
	scale := flag.Float64("scale", 0.05, "training corpus scale")
	apps := flag.Int("apps", 12, "number of unseen applications to stream")
	seed := flag.Int64("seed", 42, "training seed")
	boost := flag.Bool("boost", true, "boost the stage-2 detectors (the paper's run-time configuration)")
	modelIn := flag.String("model", "", "load a detector (JSON, from smartrain -model) instead of training; it must have been trained on the Common-4 feature space")
	flag.Parse()
	ctx := app.Start()
	defer app.Close()

	common := twosmart.CommonFeatures()
	var det *twosmart.Detector
	if *modelIn != "" {
		blob, err := os.ReadFile(*modelIn)
		if err != nil {
			fatal(err)
		}
		det, err = twosmart.LoadDetector(blob)
		if err != nil {
			fatal(err)
		}
		if got := det.FeatureNames(); len(got) != len(common) {
			fatal(fmt.Errorf("model expects %d features; the run-time monitor collects the %d Common events", len(got), len(common)))
		}
		app.Log.Info("loaded detector", "path", *modelIn)
	} else {
		// --- Train on the Common-4 feature space.
		app.Log.Info("collecting training corpus", "scale", *scale)
		full, err := twosmart.CollectContext(ctx, twosmart.CollectConfig{
			Scale:      *scale,
			Seed:       *seed,
			Omniscient: true,
			Telemetry:  app.Telemetry,
			Progress:   app.Progress("profiling"),
		})
		if err != nil {
			fatal(err)
		}
		data, err := full.SelectByName(common)
		if err != nil {
			fatal(err)
		}
		span := app.Telemetry.StartSpan("train")
		det, err = twosmart.TrainContext(ctx, data, twosmart.TrainConfig{
			Boost: *boost, Seed: *seed, Telemetry: app.Telemetry,
		})
		if err != nil {
			fatal(err)
		}
		span.End()
		app.Log.Info("detector ready", "features", common)
	}

	// --- Stream unseen applications: one single-run profile each.
	events := make([]hpc.Event, len(common))
	for i, name := range common {
		e, ok := hpc.EventByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown event %q", name))
		}
		events[i] = e
	}
	mgr := sandbox.NewManager(microarch.DefaultConfig())
	// Unseen: a different corpus seed than training.
	wopts := workload.Options{Seed: *seed + 1000}

	cd := det.Compile()

	// Per-sample detection latency, overall and per app.
	overall := app.Telemetry.Histogram("detect_latency_seconds", telemetry.LatencyBuckets)

	correct, total := 0, 0
	fv := make([]float64, len(events)) // reused: Detect never retains it
	for i := 0; i < *apps; i++ {
		if ctx.Err() != nil {
			app.Log.Warn("interrupted", "streamed", total, "requested", *apps)
			break
		}
		class := workload.AllClasses()[i%workload.NumClasses]
		prog := workload.Generate(class, 1000+i, wopts)
		samples, err := mgr.RunIsolated(prog.MustStream(), events, sandbox.ProfileOptions{
			FreqHz: 4e6, Period: 10 * time.Millisecond,
		})
		if err != nil {
			fatal(err)
		}
		appLat := app.Telemetry.Histogram(
			telemetry.Label("detect_app_latency_seconds", "app", prog.Name),
			telemetry.LatencyBuckets)
		// Majority vote across the application's samples.
		malVotes := 0
		for _, s := range samples {
			instr := float64(s.Fixed[0])
			for j, c := range s.Counts {
				fv[j] = float64(c) * 1000 / instr
			}
			t0 := time.Now()
			v, err := cd.Detect(fv)
			lat := time.Since(t0)
			if err != nil {
				fatal(err)
			}
			overall.ObserveDuration(lat)
			appLat.ObserveDuration(lat)
			if v.Malware {
				malVotes++
			}
		}
		verdict := malVotes*2 > len(samples)
		ok := verdict == class.IsMalware()
		if ok {
			correct++
		}
		total++
		status := "OK "
		if !ok {
			status = "MISS"
		}
		lat := appLat.Summary()
		fmt.Printf("%-4s %-16s samples=%-3d malware-votes=%-3d verdict=%-5v actual=%-5v latency(min/mean/p99)=%s/%s/%s\n",
			status, prog.Name, len(samples), malVotes, verdict, class.IsMalware(),
			fmtLatency(lat.Min), fmtLatency(lat.Mean()), fmtLatency(lat.P99))
	}
	fmt.Printf("\n%d/%d applications classified correctly\n", correct, total)
	if sum := overall.Summary(); sum.Count > 0 {
		fmt.Printf("detection latency over %d samples: min=%s mean=%s p99=%s max=%s\n",
			sum.Count, fmtLatency(sum.Min), fmtLatency(sum.Mean()), fmtLatency(sum.P99), fmtLatency(sum.Max))
	}
}

// fmtLatency renders a latency in seconds at microsecond resolution.
func fmtLatency(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(100 * time.Nanosecond).String()
}

func fatal(err error) {
	app.Fatal(err)
}
