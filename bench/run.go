package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/serve"
	"twosmart/internal/trace"
	"twosmart/internal/wire"
)

// timing is how long each phase of a pass lasts.
type timing struct {
	setups int           // fleet start-ups per pass; setup_s is their median
	warm   time.Duration // load before the window opens
	window time.Duration // the measured window
	tick   time.Duration // sender wake granularity
}

// passConfig is one live pass of a workload.
type passConfig struct {
	sp     spec
	seed   int64
	art    artifacts
	rows   [][]float64
	want   []expect
	conns  int
	timing timing
	traced bool
	spans  *spanLog
	run    string
}

// passResult is what one pass measured.
type passResult struct {
	e2e      map[string]float64
	layer    map[string]float64
	tail     tail
	tailMs   float64
	latCount uint64
	fates    fates
	wrong    uint64 // verdicts that disagree with the offline model
	dups     uint64
	problems []string // fate and protocol problems that fail the run
	keep     []wire.Verdict
	shards   []string
}

// runPass starts the fleet setups times (timing each set-up) and keeps
// the last one, drives the open-loop load through the warm-up and the
// window, and snapshots every serving process at each slice edge.
func runPass(ctx context.Context, pc passConfig) (*passResult, error) {
	root := pc.spans.begin(pc.run, "pass", 0)
	defer root.end()

	var setupTimes []float64
	var fl *servers
	var clients []*serve.Client
	for i := 0; i < pc.timing.setups; i++ {
		sp := pc.spans.begin(pc.run, "setup", root.id())
		f, cl, took, err := setUp(ctx, pc.sp, pc.art, pc.conns, pc.traced)
		sp.end()
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		if i < pc.timing.setups-1 {
			closeAll(cl)
			f.stop()
			continue
		}
		fl, clients = f, cl
	}
	defer func() {
		closeAll(clients)
		fl.stop()
	}()

	// Leave the senders time to open their streams before the first due.
	t0 := time.Now().Add(100 * time.Millisecond)
	win := window{t0: t0, start: pc.timing.warm, end: pc.timing.warm + pc.timing.window}
	live := pc.spans.begin(pc.run, "live", root.id())
	agents := make([]*agent, pc.conns)
	sends := make([]sendStats, pc.conns)
	recvs := make([]recvStats, pc.conns)
	var wg sync.WaitGroup
	for i := range agents {
		a := &agent{
			run: pc.run, cli: clients[i], sched: newSchedule(pc.sp, pc.seed, i, len(pc.rows)),
			rows: pc.rows, want: pc.want, win: win, tick: pc.timing.tick, spans: pc.spans, root: live.id(),
		}
		agents[i] = a
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if sends[i] = a.send(); sends[i].err != nil {
				a.cli.Close() // unblock the receiver
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			recvs[i] = a.recv()
		}(i)
	}

	// An interrupt closes the connections, which ends both agent loops.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-ctx.Done():
			closeAll(clients)
		case <-stopWatch:
		}
	}()

	// Snapshot every serving process at each slice edge; the traced pass
	// also scrapes /metrics at the window edges and /debug/traces at the
	// end.
	n := win.slices()
	snaps := make([]snapshot, n+1)
	var snapErr error
	var dumps []trace.Dump
	for k := 0; k <= n && snapErr == nil; k++ {
		sleepUntil(ctx, t0.Add(win.start+time.Duration(k)*sliceLen))
		edge := k == 0 || k == n
		sp := pc.spans.begin(pc.run, "scrape", live.id())
		snaps[k], snapErr = takeSnapshot(ctx, fl, pc.traced && edge)
		for _, p := range fl.shards {
			if snapErr != nil || !pc.traced || k != n {
				break
			}
			var d trace.Dump
			d, snapErr = scrapeTraces(ctx, p.telemetry)
			dumps = append(dumps, d)
		}
		sp.end()
	}
	wg.Wait()
	live.end()
	for i := range agents {
		if sends[i].err != nil {
			return nil, fmt.Errorf("conn %d: sending: %w", i, sends[i].err)
		}
		if recvs[i].err != nil {
			return nil, fmt.Errorf("conn %d: %w", i, recvs[i].err)
		}
	}
	if snapErr != nil {
		return nil, fmt.Errorf("window snapshot: %w", snapErr)
	}

	res := &passResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, p := range fl.shards {
		res.shards = append(res.shards, p.addr)
	}
	slices := make([]slice, n)
	scheduled := make([]uint64, n)
	var all, late hist
	var sentOnTime, wakes, frames uint64
	var wakeNanos, decodeNanos int64
	for i := range agents {
		st, rs := sends[i], recvs[i]
		for k := range slices {
			slices[k].lat.merge(&rs.slices[k].lat)
			slices[k].onTime += rs.slices[k].onTime
			slices[k].delivered += rs.slices[k].delivered
			scheduled[k] += st.scheduled[k]
		}
		late.merge(&st.late)
		sentOnTime += st.sentOnTime
		wakes += st.wakes
		wakeNanos += st.wakeNanos
		frames += rs.frames
		decodeNanos += rs.decodeNanos
		res.wrong += rs.mismatches
		res.dups += rs.duplicates
		if rs.firstWrong != "" {
			res.problems = append(res.problems, "wrong verdict: "+rs.firstWrong)
		}
		for _, e := range rs.badFrames {
			res.problems = append(res.problems, fmt.Sprintf("conn %d: %s", i, e))
		}
		f := reconcile(i, st, rs)
		res.fates.sent += f.sent
		res.fates.verdicts += f.verdicts
		res.fates.shed += f.shed
		res.fates.lost += f.lost
		res.problems = append(res.problems, f.problems...)
		if len(res.keep) < keepVerdicts {
			res.keep = append(res.keep, rs.keep...)
		}
	}
	if res.dups > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d duplicate verdicts", res.dups))
	}

	var p50, p99, rate, onTime []float64
	var totalOnTime, totalScheduled, delivered uint64
	for k, sl := range slices {
		all.merge(&sl.lat)
		totalOnTime += sl.onTime
		totalScheduled += scheduled[k]
		delivered += sl.delivered
		p50 = append(p50, sl.lat.quantile(0.50)/1e6)
		p99 = append(p99, sl.lat.quantile(0.99)/1e6)
		rate = append(rate, float64(sl.delivered)/sliceLen.Seconds())
		onTime = append(onTime, ratio(float64(sl.onTime), float64(scheduled[k])))
	}
	var cpu time.Duration
	var hwm uint64
	for i, st := range snaps[n].stats {
		cpu += st.cpu - snaps[0].stats[i].cpu
		hwm += st.hwmKB
	}
	res.e2e["setup_s"] = median(setupTimes)
	res.e2e["verdict_p50_ms"] = median(p50)
	res.e2e["verdicts_per_s"] = median(rate)
	res.e2e["on_time_frac"] = median(onTime)
	res.e2e["rss_mb"] = float64(hwm) / 1024
	res.latCount = all.n
	if t, ok := tailOf(all.n); ok {
		res.tail, res.tailMs = t, all.quantile(t.q)/1e6
	}

	L := res.layer
	L["verdict_p99_ms"] = median(p99)
	L["cpu_us_per_verdict"] = ratio(float64(cpu.Microseconds()), float64(delivered))
	L["miss_frac"] = 1 - ratio(float64(totalOnTime), float64(totalScheduled))
	L["load.late_p99_ms"] = late.quantile(0.99) / 1e6
	L["load.offered_ratio"] = ratio(float64(sentOnTime), float64(totalScheduled))
	L["fate.verdict"] = ratio(float64(res.fates.verdicts), float64(res.fates.sent))
	L["fate.shed"] = ratio(float64(res.fates.shed), float64(res.fates.sent))
	L["fate.lost"] = ratio(float64(res.fates.lost), float64(res.fates.sent))
	if !pc.traced {
		return res, nil
	}
	delta := windowDelta{before: snaps[0], after: snaps[n]}
	L["load.send_us_per_wake"] = ratio(float64(wakeNanos)/1e3, float64(wakes))
	L["load.recv_ns_per_frame"] = ratio(float64(decodeNanos), float64(frames))
	serverLayers(L, delta, len(fl.shards), fl.gateway != nil)
	hops := hopMedians(dumps, t0.Add(win.start), t0.Add(win.end))
	L["trace.gateway_us_p50"] = hops[trace.HopGateway]
	L["trace.queue_us_p50"] = hops[trace.HopQueue]
	L["trace.assembly_us_p50"] = hops[trace.HopAssembly]
	L["trace.stage0_us_p50"] = hops[trace.HopStage0]
	L["trace.score_us_p50"] = hops[trace.HopScore]
	L["trace.emit_us_p50"] = hops[trace.HopEmit]
	return res, nil
}

// serverLayers fills the serve.*, cascade.* and cluster.* metrics from
// the window's /metrics and /proc deltas. Shards are procs [0, shards);
// the gateway, when present, is the last.
func serverLayers(L map[string]float64, d windowDelta, shards int, gateway bool) {
	idx := make([]int, shards)
	var cpu time.Duration
	var verdicts, samples, shed, protoErrs, short, pass, s0n, s0s, s1n, s1s float64
	for i := range idx {
		idx[i] = i
		cpu += d.cpu(i)
		verdicts += d.counter(i, "serve_verdicts_total")
		samples += d.counter(i, "serve_samples_total")
		shed += d.counter(i, "serve_shed_total")
		protoErrs += d.counter(i, "serve_protocol_errors_total")
		short += d.counter(i, "cascade_short_total")
		pass += d.counter(i, "cascade_pass_total")
		s0n += d.counter(i, "cascade_stage0_nanos_total")
		s0s += d.counter(i, "cascade_stage0_samples_total")
		s1n += d.counter(i, "cascade_stage1_nanos_total")
		s1s += d.counter(i, "cascade_stage1_samples_total")
	}
	L["serve.cpu_us_per_verdict"] = ratio(float64(cpu.Microseconds()), verdicts)
	L["serve.batch_size_p50"] = d.quantile(idx, "serve_batch_size", 0.5)
	L["serve.shed_frac"] = ratio(shed, samples)
	L["serve.latency_p99_ms"] = d.quantile(idx, "serve_verdict_latency_seconds", 0.99) * 1e3
	L["serve.protocol_errors"] = protoErrs
	L["cascade.short_frac"] = ratio(short, short+pass)
	L["cascade.stage0_ns_per_sample"] = ratio(s0n, s0s)
	L["cascade.stage1_ns_per_sample"] = ratio(s1n, s1s)
	for _, name := range []string{"cluster.cpu_us_per_verdict", "cluster.batch_size_p50",
		"cluster.shed_frac", "cluster.dropped", "cluster.skew"} {
		L[name] = 0
	}
	if !gateway {
		return
	}
	gw := shards
	perShard := d.relayedPerShard(gw)
	var relayed float64
	for _, v := range perShard {
		relayed += v
	}
	L["cluster.cpu_us_per_verdict"] = ratio(float64(d.cpu(gw).Microseconds()), relayed)
	L["cluster.batch_size_p50"] = d.quantile([]int{gw}, "cluster_batch_size", 0.5)
	L["cluster.shed_frac"] = ratio(d.counter(gw, "cluster_shed_total"), d.counter(gw, "cluster_samples_total"))
	L["cluster.dropped"] = d.counter(gw, "cluster_samples_dropped_total")
	L["cluster.skew"] = skew(perShard)
}

func sleepUntil(ctx context.Context, t time.Time) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// model is the served detector and envelope, loaded from what smartrain
// wrote.
type model struct {
	det *core.Detector
	env *anomaly.Envelope
}

// result is one workload run as the benchmark reports it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload: the untraced pass for the end-to-end
// metrics and, when traced, a second pass with daemon telemetry and
// client spans, followed by the ladder on the same inputs.
func runWorkload(ctx context.Context, w io.Writer, sp spec, seed int64, tm timing, traced bool,
	art artifacts, m model, spans *spanLog) (*result, error) {
	rows, err := collectInputs(ctx, seed, m.det.FeatureNames(), sp.benignOnly)
	if err != nil {
		return nil, err
	}
	var env *anomaly.Envelope
	if sp.envelope {
		env = m.env
	}
	want, err := expectations(m.det, env, rows)
	if err != nil {
		return nil, err
	}
	conns := loadConns()
	fmt.Fprintf(w, "workload %s seed %d: %d conns x %d streams every %s (%.0f samples/s offered), warm-up %s, window %s\n",
		sp.name, seed, conns, sp.streams, sp.period, float64(conns*sp.streams)*float64(time.Second)/float64(sp.period),
		tm.warm, tm.window)

	run := fmt.Sprintf("%s/seed%d", sp.name, seed)
	pc := passConfig{sp: sp, seed: seed, art: art, rows: rows, want: want, conns: conns, timing: tm, run: run + "/untraced"}
	base, err := runPass(ctx, pc)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: sp.name, Seed: seed, Metrics: map[string]metricValue{}}
	for name, v := range base.e2e {
		res.Metrics[name] = metricValue{v, e2eUnits[name]}
	}
	for name, v := range base.layer {
		res.Metrics[name] = metricValue{v, layerUnits[name]}
	}
	passes := []*passResult{base}
	if traced {
		res.Trace = 1
		pc.traced, pc.spans, pc.run = true, spans, run+"/traced"
		tp, err := runPass(ctx, pc)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tp)
		// Numbers both passes measure come from the untraced one; the
		// traced pass adds what only telemetry and client timing give.
		for name, v := range tp.layer {
			if _, both := base.layer[name]; !both {
				res.Metrics[name] = metricValue{v, layerUnits[name]}
			}
		}
		for name, v := range tp.e2e {
			res.Metrics["overhead."+name] = metricValue{v - base.e2e[name], e2eUnits[name]}
		}
		for name := range ungated {
			res.Metrics["overhead."+name] = metricValue{tp.layer[name] - base.layer[name], ungated[name]}
		}
		if err := ladderLayers(res, sp, seed, conns, rows, m, tp, spans, pc.run); err != nil {
			return nil, err
		}
	}

	res.Correct = true
	for _, p := range passes {
		res.Attempted += p.fates.sent
		res.Failed += p.fates.lost + p.wrong
		if p.wrong > 0 || len(p.problems) > 0 {
			res.Correct = false
		}
	}
	report(w, res, passes, spans, pc.run)
	return res, nil
}

// ladderLayers runs the ladder on the workload's inputs at the traced
// pass's observed shape and derives the reconciliation against the live
// serve CPU per verdict.
func ladderLayers(res *result, sp spec, seed int64, conns int, rows [][]float64, m model,
	tp *passResult, spans *spanLog, run string) error {
	sh := shape{
		streams:  sp.streams,
		batch:    max(1, int(math.Round(tp.layer["serve.batch_size_p50"]))),
		verdicts: tp.keep,
		routes:   tp.shards,
	}
	if len(sh.routes) < 2 { // single-shard workloads: route over a notional pair
		sh.routes = []string{"127.0.0.1:7644", "127.0.0.1:7645"}
	}
	for c := 0; c < conns; c++ {
		sh.agents = append(sh.agents, fmt.Sprintf("bench-%d", c))
	}
	sched := newSchedule(sp, seed, 0, len(rows))
	for slot := 0; slot < sp.streams; slot++ {
		sh.apps = append(sh.apps, sched.app(slot, 0))
	}
	root := spans.begin(run, "ladder", 0)
	out, err := runLadder(ladderInputs{det: m.det, env: m.env, cascade: sp.envelope, rows: rows}, sh, spans, run, root.id())
	root.end()
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	sum := out["wire.sample_decode_ns"] + out["session.push_ns"] + out["session.round_ns_per_sample"] + out["wire.verdict_encode_ns"]
	out["ladder.sum_ns_per_sample"] = sum
	out["ladder.serve_ns_per_verdict"] = tp.layer["serve.cpu_us_per_verdict"] * 1e3
	out["ladder.reconcile_ratio"] = ratio(sum, out["ladder.serve_ns_per_verdict"])
	for name, v := range out {
		res.Metrics[name] = metricValue{v, layerUnits[name]}
	}
	return nil
}

// report prints every metric of a run by name with its unit, the tail
// percentile, the fate account and, when traced, the span table.
func report(w io.Writer, res *result, passes []*passResult, spans *spanLog, tracedRun string) {
	base := passes[0]
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		_, ei := e2eUnits[names[i]]
		_, ej := e2eUnits[names[j]]
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		kind := "layer"
		if _, ok := e2eUnits[name]; ok {
			kind = "e2e  "
		}
		v := res.Metrics[name]
		fmt.Fprintf(w, "  %s %-32s %16.6g %s\n", kind, name, v.Value, v.Unit)
	}
	if base.latCount > 0 {
		fmt.Fprintf(w, "  tail  verdict_%s_ms %.6g ms: %s of %d timed verdicts (not gated)\n",
			base.tail.label, base.tailMs, base.tail, base.latCount)
	}
	f := base.fates
	fmt.Fprintf(w, "  fates sent %d = verdicts %d + shed %d + lost %d; %d wrong verdicts\n",
		f.sent, f.verdicts, f.shed, f.lost, base.wrong)
	for _, p := range passes {
		for i, msg := range p.problems {
			if i == 10 {
				fmt.Fprintf(w, "  FAIL  ... %d more\n", len(p.problems)-10)
				break
			}
			fmt.Fprintf(w, "  FAIL  %s\n", msg)
		}
	}
	if len(passes) > 1 {
		L := res.Metrics
		fmt.Fprintf(w, "  ladder per sample: decode %.1f + push %.1f + round %.1f (detect %.1f, observe %.1f) + verdict encode %.1f = %.1f ns; live serve CPU %.1f ns/verdict; ratio %.3f\n",
			L["wire.sample_decode_ns"].Value, L["session.push_ns"].Value, L["session.round_ns_per_sample"].Value,
			L["core.detect_ns_per_sample"].Value, L["monitor.observe_ns_per_sample"].Value,
			L["wire.verdict_encode_ns"].Value, L["ladder.sum_ns_per_sample"].Value,
			L["ladder.serve_ns_per_verdict"].Value, L["ladder.reconcile_ratio"].Value)
		printSelfTimes(w, tracedRun, selfTimes(spans.spansOf(tracedRun)))
	}
}
