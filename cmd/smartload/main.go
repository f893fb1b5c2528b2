// Command smartload is the load harness for cmd/smartserve: it replays
// corpus-derived HPC sample streams over many concurrent connections and
// reports end-to-end throughput, verdict latency quantiles (p50/p95/p99)
// and the shed rate the server's load-shedding reported.
//
// Synthetic and replayed load are both plans run by one sender and one
// receiver (drive.go). Paced load (-interval, -amplify N > 0) times each
// verdict from its sample's scheduled send time, so coordinated omission
// cannot hide queueing. The fates line reconciles sent = verdicts + shed
// + lost; a loss alone never fails the run.
//
// -addr may name a smartgw gateway instead of a single server: the
// protocol is the same. How the gateway split the streams over its
// shards is its own measurement, the cluster_*{shard} counters on its
// /metrics and in its -report. A failing connection never surfaces a raw
// socket error: failures are classified (server closed mid-run, drained,
// timed out) and summarized per connection before the non-zero exit.
//
// With -replay the harness feeds a recorded sample log (a smartserve
// -samplelog directory, or one an earlier smartgw recorded) back through
// the wire path instead of the synthetic corpus: the exact production
// feature stream, replayed on its recorded inter-arrival timeline
// compressed by -amplify (1 = real time, 0 = full speed). Recorded
// streams map onto fresh wire streams in first-appearance order, so each
// original stream's samples arrive in their original sequence.
//
// Usage:
//
//	smartload -addr 127.0.0.1:7643
//	smartload -addr 127.0.0.1:7643 -conns 8 -streams 4 -samples 20000
//	smartload -addr 127.0.0.1:7643 -interval 10ms   # the paper's sampling period
//	smartload -addr 127.0.0.1:7643 -replay samples/ -amplify 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"twosmart"
	"twosmart/internal/cli"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/samplelog"
	"twosmart/internal/session"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
	"twosmart/internal/workload"
)

var app = cli.New("smartload")

func main() {
	addr := flag.String("addr", "127.0.0.1:7643", "smartserve address to load")
	conns := flag.Int("conns", 4, "concurrent agent connections")
	streams := flag.Int("streams", 4, "app streams per connection")
	samples := flag.Int("samples", 10000, "samples per stream")
	interval := flag.Duration("interval", 0, "delay between a stream's samples (0 = full speed; 10ms = the paper's sampling period)")
	seed := flag.Int64("seed", 7, "corpus seed for the replayed samples")
	reportOut := flag.String("report", "", "write the machine-readable run report (JSON: throughput, latency and heartbeat RTT histograms) to this file (- for stdout)")
	benign := flag.Bool("benign", false, "replay only the corpus's benign-class samples — the benign-heavy traffic profile a stage-0 cascade (-envelope on the server) is built for")
	replayDir := flag.String("replay", "", "replay a recorded sample log (a smartserve -samplelog directory) through the wire path instead of the synthetic corpus")
	amplify := flag.Int("amplify", 1, "with -replay: compress the recorded timeline by this factor (1 = real time, 0 = full speed)")
	flag.Parse()

	// Fail fast on nonsense sizing before spinning up telemetry or
	// collecting a corpus; exit 2 like any other flag error, with the
	// full usage text so the fix is one screen away.
	badFlag := func(msg string) {
		fmt.Fprintf(os.Stderr, "smartload: %s\n", msg)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *conns < 1:
		badFlag(fmt.Sprintf("-conns must be positive (got %d)", *conns))
	case *streams < 1:
		badFlag(fmt.Sprintf("-streams must be positive (got %d)", *streams))
	case *samples < 1:
		badFlag(fmt.Sprintf("-samples must be positive (got %d)", *samples))
	case *interval < 0:
		badFlag(fmt.Sprintf("-interval must not be negative (got %s)", *interval))
	case *amplify < 0:
		badFlag(fmt.Sprintf("-amplify must not be negative (got %d)", *amplify))
	}
	// In replay mode the log dictates streams, pacing and sample counts;
	// an explicitly-set corpus-shape flag is a conflicting intent, not a
	// silently ignored default.
	replaySet := map[string]bool{
		"conns": true, "streams": true, "samples": true, "interval": true,
		"seed": true, "benign": true,
	}
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *replayDir != "" && replaySet[f.Name]:
			badFlag(fmt.Sprintf("-%s does not apply with -replay (the recorded log dictates streams, pacing and sample counts)", f.Name))
		case *replayDir == "" && f.Name == "amplify":
			badFlag("-amplify needs -replay")
		}
	})
	ctx := app.Start()
	defer app.Close()

	// Load the traffic source before dialing, so a bad log fails fast.
	var (
		recs []samplelog.Record
		data *dataset.Dataset
		err  error
	)
	if *replayDir != "" {
		recs = readLog(*replayDir)
	} else {
		app.Log.Info("collecting replay corpus", "seed", *seed)
		data, err = twosmart.CollectContext(ctx, corpus.Config{
			Scale:       0.001,
			MinPerClass: 24,
			Budget:      30000,
			Seed:        *seed,
			Omniscient:  true,
		})
		if err != nil {
			app.Fatal(err)
		}
	}

	// Probe the server once to learn the model's feature width.
	probe, err := session.Dial(ctx, *addr, "smartload-probe")
	if err != nil {
		app.Fatal(fmt.Errorf("dialing %s: %w", *addr, err))
	}
	welcome := probe.Welcome()
	probe.Close()
	app.Log.Info("probed server",
		"model", welcome.Model, "model_format", welcome.ModelFormat,
		"model_version", welcome.ModelVersion, "features", welcome.NumFeatures)

	var plans []plan
	if recs != nil {
		var p plan
		p, err = replayPlan(recs, *amplify, int(welcome.NumFeatures))
		plans = []plan{p}
	} else {
		var rows [][]float64
		if rows, err = corpusRows(data, int(welcome.NumFeatures), *benign); err == nil {
			plans, err = synthPlans(rows, *conns, *streams, *samples, *interval)
		}
	}
	if err != nil {
		app.Fatal(err)
	}
	app.Log.Info("starting load", "conns", len(plans), "streams_per_conn", len(plans[0].streams))

	start := time.Now()
	agg := run(ctx, *addr, plans)
	elapsed := time.Since(start)

	perSec := float64(agg.sent) / elapsed.Seconds()
	if recs != nil {
		fmt.Printf("replayed %d records over %d streams in %.2fs (%.0f samples/s, amplify %d)\n",
			agg.sent, len(plans[0].streams), elapsed.Seconds(), perSec, *amplify)
	} else {
		fmt.Printf("sent     %d samples in %.2fs (%.0f samples/s)\n", agg.sent, elapsed.Seconds(), perSec)
	}
	printSummary(agg, elapsed)
	if *reportOut == "" {
		return
	}
	rep := report(agg, elapsed, welcome)
	if recs != nil {
		rep.Results["replay_records"] = float64(len(recs))
		rep.Results["replay_streams"] = float64(len(plans[0].streams))
		rep.Results["replay_amplify"] = float64(*amplify)
		rep.Notes["replay_log"] = *replayDir
	}
	if err := rep.WriteFile(*reportOut); err != nil {
		app.Log.Error("write run report", "path", *reportOut, "err", err)
	} else if *reportOut != "-" {
		app.Log.Info("wrote run report", "path", *reportOut)
	}
}

// run drives every plan on its own connection concurrently and returns
// the aggregate with its latencies sorted. A failed connection ends the
// process: one classified line per failed connection instead of
// whichever raw socket error happened to surface first.
func run(ctx context.Context, addr string, plans []plan) connResult {
	results := make([]connResult, len(plans))
	var wg sync.WaitGroup
	for i, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = drive(ctx, addr, p)
		}()
	}
	wg.Wait()

	agg := connResult{versions: map[uint32]uint64{}}
	var failed []int
	for ci, r := range results {
		if r.err != nil {
			failed = append(failed, ci)
		}
		agg.sent += r.sent
		agg.verdicts += r.verdicts
		agg.shed += r.shed
		agg.alarms += r.alarms
		agg.latencies = append(agg.latencies, r.latencies...)
		for v, n := range r.versions {
			agg.versions[v] += n
		}
	}
	if len(failed) > 0 {
		if ctx.Err() != nil {
			app.Fatal(context.Canceled)
		}
		fmt.Fprintf(os.Stderr, "smartload: %d/%d connections failed:\n", len(failed), len(plans))
		for _, ci := range failed {
			r := results[ci]
			fmt.Fprintf(os.Stderr, "  conn %d: %s (sent %d samples, received %d verdicts)\n",
				ci, classify(r.err), r.sent, r.verdicts)
		}
		app.Fatal(fmt.Errorf("%d/%d connections failed: %s", len(failed), len(plans), classify(results[failed[0]].err)))
	}
	sort.Float64s(agg.latencies)
	return agg
}

// printSummary prints the summary lines that follow the mode's first
// line, and folds the exact latency samples into the run-report
// histogram.
func printSummary(agg connResult, elapsed time.Duration) {
	fmt.Printf("verdicts %d (%.0f/s)  alarms %d\n", agg.verdicts, float64(agg.verdicts)/elapsed.Seconds(), agg.alarms)
	fmt.Printf("shed     %d (%.2f%%)\n", agg.shed, 100*agg.shedRate())
	if len(agg.versions) > 0 {
		vs := make([]int, 0, len(agg.versions))
		for v := range agg.versions {
			vs = append(vs, int(v))
		}
		sort.Ints(vs)
		fmt.Printf("models  ")
		for _, v := range vs {
			fmt.Printf(" v%d=%d", v, agg.versions[uint32(v)])
		}
		fmt.Printf("  (stream summaries per model version)\n")
	}
	fmt.Printf("fates    sent %d = verdicts %d + shed %d + lost %d\n", agg.sent, agg.verdicts, agg.shed, agg.lost())
	if len(agg.latencies) > 0 {
		fmt.Printf("latency  p50=%s p95=%s p99=%s max=%s\n",
			quantile(agg.latencies, 0.50), quantile(agg.latencies, 0.95),
			quantile(agg.latencies, 0.99), quantile(agg.latencies, 1))
		lat := app.Telemetry.Histogram("load_verdict_latency_seconds", telemetry.LatencyBuckets)
		for _, l := range agg.latencies {
			lat.Observe(l)
		}
	}
	if hb := hbHist().Summary(); hb.Count > 0 {
		fmt.Printf("hb rtt   p50=%s p99=%s max=%s (%d echoes)\n",
			time.Duration(hb.P50*float64(time.Second)),
			time.Duration(hb.P99*float64(time.Second)),
			time.Duration(hb.Max*float64(time.Second)), hb.Count)
	}
}

// hbHist is the heartbeat-RTT histogram every connection's receiver
// feeds; it rides into the -report document like any other metric.
func hbHist() telemetry.Histogram {
	return app.Telemetry.Histogram("load_heartbeat_rtt_seconds", telemetry.LatencyBuckets)
}

// report builds the RunReport-shaped JSON artifact: the headline
// throughput/latency figures in Results, plus every histogram the run
// recorded (verdict latency, heartbeat RTT).
func report(agg connResult, elapsed time.Duration, welcome wire.Welcome) *telemetry.RunReport {
	rep := app.Telemetry.Report(app.Tool)
	rep.Results["samples_sent"] = float64(agg.sent)
	rep.Results["verdicts"] = float64(agg.verdicts)
	rep.Results["shed"] = float64(agg.shed)
	rep.Results["lost"] = float64(agg.lost())
	rep.Results["alarms"] = float64(agg.alarms)
	rep.Results["wall_s"] = elapsed.Seconds()
	rep.Results["samples_per_s"] = float64(agg.sent) / elapsed.Seconds()
	rep.Results["verdicts_per_s"] = float64(agg.verdicts) / elapsed.Seconds()
	rep.Results["shed_rate"] = agg.shedRate()
	if len(agg.latencies) > 0 {
		rep.Results["latency_p50_s"] = quantile(agg.latencies, 0.50).Seconds()
		rep.Results["latency_p95_s"] = quantile(agg.latencies, 0.95).Seconds()
		rep.Results["latency_p99_s"] = quantile(agg.latencies, 0.99).Seconds()
	}
	rep.Results["model_version"] = float64(welcome.ModelVersion)
	rep.Notes = map[string]string{"model": welcome.Model}
	return rep
}

// corpusRows projects the corpus onto the served model's feature width
// and returns its feature rows, only the benign-class ones when benign
// is set.
func corpusRows(d *dataset.Dataset, width int, benign bool) ([][]float64, error) {
	d, err := project(d, width)
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	for _, ins := range d.Instances {
		if !benign || workload.Class(ins.Label) == workload.Benign {
			rows = append(rows, ins.Features)
		}
	}
	return rows, nil
}

// project reduces the replay corpus to the feature width the served model
// expects.
func project(d *dataset.Dataset, width int) (*dataset.Dataset, error) {
	if width == d.NumFeatures() {
		return d, nil
	}
	if width == len(twosmart.CommonFeatures()) {
		return d.SelectByName(twosmart.CommonFeatures())
	}
	return nil, fmt.Errorf("server model wants %d features; corpus has %d and only the Common-%d projection is known",
		width, d.NumFeatures(), len(twosmart.CommonFeatures()))
}

// synthPlans builds one plan per connection over the corpus rows. Stream
// s of connection c carries app conn<c>-app<s>; round r sends one sample
// per stream, due at r × interval (interval 0 = unpaced), and feature
// rows cycle round-robin over the corpus. Sends are generated on demand,
// so a plan costs nothing per planned sample.
func synthPlans(rows [][]float64, conns, streams, samples int, interval time.Duration) ([]plan, error) {
	if len(rows) == 0 {
		return nil, errors.New("corpus has no samples to send (with -benign: no benign-class samples)")
	}
	at := func(i int) sample {
		r := i / streams
		return sample{stream: uint32(i % streams), seq: uint32(r),
			due: time.Duration(r) * interval, features: rows[i%len(rows)]}
	}
	plans := make([]plan, conns)
	for c := range plans {
		p := plan{agent: fmt.Sprintf("smartload-%d", c), paced: interval > 0, sample: at}
		for s := 0; s < streams; s++ {
			p.streams = append(p.streams, planStream{app: fmt.Sprintf("conn%d-app%d", c, s), n: samples})
		}
		plans[c] = p
	}
	return plans, nil
}

type connResult struct {
	err       error
	sent      uint64
	verdicts  uint64
	shed      uint64
	alarms    uint64
	latencies []float64         // seconds
	versions  map[uint32]uint64 // summaries per model version (hot-swap visibility)
}

// lost counts the sent samples that ended as neither a verdict nor a
// shed. It is signed: duplicate verdicts from an at-least-once re-send
// make it negative.
func (r connResult) lost() int64 {
	return int64(r.sent) - int64(r.verdicts) - int64(r.shed)
}

func (r connResult) shedRate() float64 {
	if r.sent == 0 {
		return 0
	}
	return float64(r.shed) / float64(r.sent)
}

// classify turns a connection failure into an operator-readable line:
// the common "server went away mid-run" socket errors get a clear
// diagnosis with the raw cause in parentheses.
func classify(err error) string {
	switch {
	case errors.Is(err, syscall.EPIPE), errors.Is(err, syscall.ECONNRESET):
		return fmt.Sprintf("server closed the connection mid-run (%v)", err)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "server closed the connection mid-run (stream cut mid-frame)"
	case errors.Is(err, io.EOF):
		return "server closed the connection mid-run (EOF before all stream summaries arrived)"
	default:
		return err.Error()
	}
}

// quantile returns the q-th quantile of sorted latencies, formatted as a
// duration.
func quantile(sorted []float64, q float64) time.Duration {
	idx := int(q*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return time.Duration(sorted[idx] * float64(time.Second))
}
