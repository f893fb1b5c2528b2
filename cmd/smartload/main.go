// Command smartload is the load harness for cmd/smartserve: it replays
// corpus-derived HPC sample streams over many concurrent connections and
// reports end-to-end throughput, verdict latency quantiles (p50/p95/p99)
// and the shed rate the server's load-shedding reported.
//
// With -cluster the harness loads a smartgw gateway instead of a single
// server: -addr points at the gateway, and -shards (the same list the
// gateway was started with) lets the harness predict each stream's
// consistent-hash placement and report per-shard throughput skew. A
// failing connection never surfaces a raw socket error: failures are
// classified (server closed mid-run, drained, timed out) and summarized
// per connection before the non-zero exit.
//
// With -replay the harness feeds a recorded sample log (a smartserve or
// smartgw -samplelog directory) back through the wire path instead of
// the synthetic corpus: the exact production feature stream, replayed on
// its recorded inter-arrival timeline compressed by -amplify (1 = real
// time, 0 = full speed). Recorded streams map onto fresh wire streams in
// first-appearance order, so each original stream's samples arrive in
// their original sequence.
//
// Usage:
//
//	smartload -addr 127.0.0.1:7643
//	smartload -addr 127.0.0.1:7643 -conns 8 -streams 4 -samples 20000
//	smartload -addr 127.0.0.1:7643 -interval 10ms   # the paper's sampling period
//	smartload -addr 127.0.0.1:7643 -cluster -shards 127.0.0.1:7644,127.0.0.1:7645
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
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"twosmart"
	"twosmart/internal/cli"
	"twosmart/internal/cluster"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/serve"
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
	clusterMode := flag.Bool("cluster", false, "load a smartgw gateway: report per-shard routing and throughput skew (give the fleet with -shards)")
	shardsFlag := flag.String("shards", "", "with -cluster: comma-separated shard addresses behind the gateway, used to predict consistent-hash placement")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "with -cluster: virtual nodes per shard (must match smartgw -replicas)")
	reportOut := flag.String("report", "", "write the machine-readable run report (JSON: throughput, latency and heartbeat RTT histograms) to this file (- for stdout)")
	benign := flag.Bool("benign", false, "replay only the corpus's benign-class samples — the benign-heavy traffic profile a stage-0 cascade (-envelope on the server) is built for")
	replayDir := flag.String("replay", "", "replay a recorded sample log (smartserve/smartgw -samplelog directory) through the wire path instead of the synthetic corpus")
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
	case !*clusterMode && *shardsFlag != "":
		badFlag("-shards needs -cluster")
	case *amplify < 0:
		badFlag(fmt.Sprintf("-amplify must not be negative (got %d)", *amplify))
	}
	// In replay mode the log dictates streams, pacing and sample counts;
	// an explicitly-set corpus-shape flag is a conflicting intent, not a
	// silently ignored default.
	replaySet := map[string]bool{
		"conns": true, "streams": true, "samples": true, "interval": true,
		"seed": true, "cluster": true, "shards": true, "replicas": true, "benign": true,
	}
	flag.Visit(func(f *flag.Flag) {
		switch {
		case *replayDir != "" && replaySet[f.Name]:
			badFlag(fmt.Sprintf("-%s does not apply with -replay (the recorded log dictates streams, pacing and sample counts)", f.Name))
		case *replayDir == "" && f.Name == "amplify":
			badFlag("-amplify needs -replay")
		}
	})
	var fleet []string
	if *shardsFlag != "" {
		fleet = strings.Split(*shardsFlag, ",")
		for i := range fleet {
			fleet[i] = strings.TrimSpace(fleet[i])
		}
	}

	ctx := app.Start()
	defer app.Close()

	if *replayDir != "" {
		runReplay(ctx, *addr, *replayDir, *amplify, *reportOut)
		return
	}

	app.Log.Info("collecting replay corpus", "seed", *seed)
	data, err := twosmart.CollectContext(ctx, corpus.Config{
		Scale:       0.001,
		MinPerClass: 24,
		Budget:      30000,
		Seed:        *seed,
		Omniscient:  true,
	})
	if err != nil {
		app.Fatal(err)
	}

	// Probe the server once to learn the model's feature width, then
	// project the corpus onto it.
	probe, err := serve.Dial(ctx, *addr, "smartload-probe")
	if err != nil {
		app.Fatal(fmt.Errorf("dialing %s: %w", *addr, err))
	}
	welcome := probe.Welcome()
	probe.Close()
	app.Log.Info("probed server",
		"model", welcome.Model, "model_format", welcome.ModelFormat,
		"model_version", welcome.ModelVersion, "features", welcome.NumFeatures)
	data, err = project(data, int(welcome.NumFeatures))
	if err != nil {
		app.Fatal(err)
	}
	if *benign {
		kept := data.Instances[:0]
		for _, ins := range data.Instances {
			if workload.Class(ins.Label) == workload.Benign {
				kept = append(kept, ins)
			}
		}
		if len(kept) == 0 {
			app.Fatal(fmt.Errorf("-benign: corpus has no benign-class samples"))
		}
		data.Instances = kept
		app.Log.Info("benign-only corpus", "samples", data.Len())
	}
	replay := make([][]float64, data.Len())
	for i, ins := range data.Instances {
		replay[i] = ins.Features
	}

	total := *conns * *streams * *samples
	app.Log.Info("starting load",
		"conns", *conns, "streams", *streams, "samples_per_stream", *samples, "total", total)

	results := make([]connResult, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < *conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			results[ci] = driveConn(ctx, *addr, ci, *streams, *samples, *interval, replay)
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var agg connResult
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
			if agg.versions == nil {
				agg.versions = map[uint32]uint64{}
			}
			agg.versions[v] += n
		}
	}
	if len(failed) > 0 {
		// One classified line per failed connection instead of whichever
		// raw socket error happened to surface first.
		if ctx.Err() != nil {
			app.Fatal(context.Canceled)
		}
		fmt.Fprintf(os.Stderr, "smartload: %d/%d connections failed:\n", len(failed), *conns)
		for _, ci := range failed {
			r := results[ci]
			fmt.Fprintf(os.Stderr, "  conn %d: %s (sent %d samples, received %d verdicts)\n",
				ci, classify(r.err), r.sent, r.verdicts)
		}
		app.Fatal(fmt.Errorf("%d/%d connections failed: %s", len(failed), *conns, classify(results[failed[0]].err)))
	}

	perSec := float64(agg.sent) / elapsed.Seconds()
	shedRate := 0.0
	if agg.sent > 0 {
		shedRate = float64(agg.shed) / float64(agg.sent)
	}
	fmt.Printf("sent     %d samples in %.2fs (%.0f samples/s)\n", agg.sent, elapsed.Seconds(), perSec)
	fmt.Printf("verdicts %d (%.0f/s)  alarms %d\n", agg.verdicts, float64(agg.verdicts)/elapsed.Seconds(), agg.alarms)
	fmt.Printf("shed     %d (%.2f%%)\n", agg.shed, 100*shedRate)
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
	if len(agg.latencies) > 0 {
		sort.Float64s(agg.latencies)
		fmt.Printf("latency  p50=%s p95=%s p99=%s max=%s\n",
			quantile(agg.latencies, 0.50), quantile(agg.latencies, 0.95),
			quantile(agg.latencies, 0.99), quantile(agg.latencies, 1))
		// Fold the exact latency samples into the run-report histogram.
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
	if *clusterMode && len(fleet) > 0 {
		skewReport(results, fleet, *replicas, *streams)
	}
	if *reportOut != "" {
		writeReport(*reportOut, agg, elapsed, welcome)
	}
}

// hbHist is the heartbeat-RTT histogram every connection's receiver
// feeds; it rides into the -report document like any other metric.
func hbHist() telemetry.Histogram {
	return app.Telemetry.Histogram("load_heartbeat_rtt_seconds", telemetry.LatencyBuckets)
}

// writeReport emits the RunReport-shaped JSON artifact: the headline
// throughput/latency figures in Results, plus every histogram the run
// recorded (verdict latency, heartbeat RTT).
func writeReport(path string, agg connResult, elapsed time.Duration, welcome wire.Welcome) {
	rep := app.Telemetry.Report(app.Tool)
	rep.Results["samples_sent"] = float64(agg.sent)
	rep.Results["verdicts"] = float64(agg.verdicts)
	rep.Results["shed"] = float64(agg.shed)
	rep.Results["alarms"] = float64(agg.alarms)
	rep.Results["wall_s"] = elapsed.Seconds()
	rep.Results["samples_per_s"] = float64(agg.sent) / elapsed.Seconds()
	rep.Results["verdicts_per_s"] = float64(agg.verdicts) / elapsed.Seconds()
	if agg.sent > 0 {
		rep.Results["shed_rate"] = float64(agg.shed) / float64(agg.sent)
	}
	if len(agg.latencies) > 0 { // already sorted by the summary print
		rep.Results["latency_p50_s"] = quantile(agg.latencies, 0.50).Seconds()
		rep.Results["latency_p95_s"] = quantile(agg.latencies, 0.95).Seconds()
		rep.Results["latency_p99_s"] = quantile(agg.latencies, 0.99).Seconds()
	}
	rep.Results["model_version"] = float64(welcome.ModelVersion)
	rep.Notes = map[string]string{"model": welcome.Model}
	if err := rep.WriteFile(path); err != nil {
		app.Log.Error("write run report", "path", path, "err", err)
		return
	}
	if path != "-" {
		app.Log.Info("wrote run report", "path", path)
	}
}

// skewReport maps every stream's verdict count onto the shard the
// consistent-hash ring places it on — the same (members, replicas, key)
// routing smartgw computes — and prints the per-shard throughput split
// plus the max/mean skew factor. A skew near 1.00 means the virtual-node
// ring is spreading (agent, app) streams evenly.
func skewReport(results []connResult, fleet []string, replicas, streams int) {
	ring := cluster.BuildRing(fleet, replicas)
	verdictsBy := make(map[string]uint64, len(fleet))
	streamsBy := make(map[string]int, len(fleet))
	var total uint64
	for ci, r := range results {
		for s := 0; s < streams; s++ {
			shard := ring.Route(cluster.RouteKey(fmt.Sprintf("smartload-%d", ci), fmt.Sprintf("conn%d-app%d", ci, s)))
			streamsBy[shard]++
			n := r.byStream[uint32(s)]
			verdictsBy[shard] += n
			total += n
		}
	}
	fmt.Printf("cluster  %d shards, %d streams (predicted placement, verdicts actually received per stream)\n",
		len(fleet), len(results)*streams)
	var max, sum float64
	for _, shard := range ring.Members() {
		share := 0.0
		if total > 0 {
			share = float64(verdictsBy[shard]) / float64(total)
		}
		if float64(verdictsBy[shard]) > max {
			max = float64(verdictsBy[shard])
		}
		sum += float64(verdictsBy[shard])
		fmt.Printf("  shard %-21s streams=%-4d verdicts=%-8d (%.1f%%)\n",
			shard, streamsBy[shard], verdictsBy[shard], 100*share)
	}
	if mean := sum / float64(len(fleet)); mean > 0 {
		fmt.Printf("  skew max/mean = %.2f\n", max/mean)
	}
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

type connResult struct {
	err       error
	sent      uint64
	verdicts  uint64
	shed      uint64
	alarms    uint64
	latencies []float64         // seconds
	versions  map[uint32]uint64 // summaries per model version (hot-swap visibility)
	byStream  map[uint32]uint64 // verdicts per stream id (cluster skew report)
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

// driveConn runs one agent connection: a sender pushing every stream's
// samples round-robin and a receiver matching verdicts back to send
// timestamps. Send times cross the goroutine boundary through atomics —
// the verdict for (stream, seq) is causally after its send, but the Go
// memory model still wants explicit synchronisation.
func driveConn(ctx context.Context, addr string, ci, streams, samples int, interval time.Duration, replay [][]float64) connResult {
	var res connResult
	c, err := serve.Dial(ctx, addr, fmt.Sprintf("smartload-%d", ci))
	if err != nil {
		res.err = err
		return res
	}
	defer c.Close()

	sendNanos := make([]atomic.Int64, streams*samples)
	recvDone := make(chan connResult, 1)
	go func() {
		var r connResult
		summaries := 0
		for summaries < streams {
			f, err := c.Next()
			if err != nil {
				r.err = err
				break
			}
			switch fr := f.(type) {
			case wire.Heartbeat:
				// Echo of a probe this sender stamped with its send time:
				// the round trip measures wire + server turnaround without
				// any scoring in the path.
				if rtt := time.Since(time.Unix(0, int64(fr.Nanos))).Seconds(); rtt > 0 {
					hbHist().Observe(rtt)
				}
			case wire.Verdict:
				r.verdicts++
				if fr.Flags&wire.FlagAlarm != 0 {
					r.alarms++
				}
				if r.byStream == nil {
					r.byStream = map[uint32]uint64{}
				}
				r.byStream[fr.Stream]++
				idx := int(fr.Stream)*samples + int(fr.Seq)
				if idx < len(sendNanos) {
					if t0 := sendNanos[idx].Load(); t0 != 0 {
						r.latencies = append(r.latencies, time.Since(time.Unix(0, t0)).Seconds())
					}
				}
			case wire.StreamSummary:
				r.shed += fr.Shed
				if r.versions == nil {
					r.versions = map[uint32]uint64{}
				}
				r.versions[fr.ModelVersion]++
				summaries++
			case wire.Error:
				r.err = fmt.Errorf("server error %d: %s", fr.Code, fr.Msg)
			}
			if r.err != nil {
				break
			}
		}
		recvDone <- r
	}()

	for s := 0; s < streams; s++ {
		if err := c.OpenStream(uint32(s), fmt.Sprintf("conn%d-app%d", ci, s)); err != nil {
			res.err = err
			return res
		}
	}
	var tick *time.Ticker
	if interval > 0 {
		tick = time.NewTicker(interval)
		defer tick.Stop()
	}
send:
	for i := 0; i < samples; i++ {
		for s := 0; s < streams; s++ {
			if ctx.Err() != nil {
				res.err = ctx.Err()
				break send
			}
			fv := replay[(i*streams+s)%len(replay)]
			sendNanos[s*samples+i].Store(time.Now().UnixNano())
			if err := c.Send(uint32(s), uint32(i), fv); err != nil {
				res.err = err
				break send
			}
			res.sent++
		}
		// At full speed, flush in bursts so frames hit the wire while
		// syscalls stay amortised; paced, flush before every wait so no
		// sample idles in the buffer for a period. Every 64th round carries
		// a heartbeat probe so the run samples wire RTT alongside verdict
		// latency.
		if i%64 == 63 {
			if err := c.Heartbeat(uint64(time.Now().UnixNano())); err != nil {
				res.err = err
				break send
			}
		}
		if i%64 == 63 || tick != nil {
			if err := c.Flush(); err != nil {
				res.err = err
				break send
			}
		}
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
				res.err = ctx.Err()
				break send
			}
		}
	}
	if res.err == nil {
		for s := 0; s < streams; s++ {
			if err := c.CloseStream(uint32(s)); err != nil {
				res.err = err
				break
			}
		}
	}
	if err := c.Flush(); err != nil && res.err == nil {
		res.err = err
	}

	select {
	case r := <-recvDone:
		r.sent = res.sent
		if res.err != nil && r.err == nil {
			r.err = res.err
		}
		return r
	case <-time.After(60 * time.Second):
		res.err = fmt.Errorf("conn %d: receiver did not finish within 60s", ci)
		return res
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
