// Command smartctl operates the model registry behind the streaming
// detection service: it publishes trained detector blobs into a
// versioned, content-addressed store, promotes and rolls back the active
// version (a running smartserve -registry -watch picks the change up
// with zero downtime), and diffs two published versions on a replayed
// corpus before an operator commits to a promotion.
//
// Usage:
//
//	smartctl publish  -registry models/ -model det.json -note "weekly retrain" -promote
//	smartctl list     -registry models/
//	smartctl promote  -registry models/ -version 3
//	smartctl rollback -registry models/
//	smartctl diff     -registry models/ -baseline 2 -candidate 3
//	smartctl prune    -registry models/ -keep 5
//	smartctl status   -fleet 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	smartctl backtest -registry models/ -log samples/ -version 3
//	smartctl logverify -log samples/
//	smartctl rollout start  -registry models/ -candidate 3 -canary-shard shard-a \
//	    -canary-addr 127.0.0.1:8082 -baseline-addrs 127.0.0.1:8083 -bake 2m
//	smartctl rollout status -registry models/ [-json]
//	smartctl rollout abort  -registry models/
//
// rollout drives a staged canary rollout: start pins the candidate
// version to one canary shard (whose smartserve -shard-id ... -watch
// picks it up like any hot swap), bakes it for -bake while scraping the
// canary and baseline shards, and gates each evidence window on shadow
// divergence, p99 regression ratio, the drift monitor's verdict, and a
// minimum canary sample count (an idle canary can never pass). Every
// gate holding for the full bake widens the candidate fleet-wide;
// any failure unpins immediately and records why. start exits 0 only
// when the rollout widened, so scripts can branch on the outcome.
// status renders the durable evidence trail (rollout.json in the
// registry root); abort drops a cooperative flag the running controller
// honors — it never writes the manifest from a second process.
//
// backtest replays a durable sample log (smartserve -samplelog) through
// a published candidate version at full speed and reports divergence
// against the verdicts the fleet actually served — the same report shape
// as diff, but over real recorded traffic instead of the synthetic
// corpus. -from/-to (RFC3339) and -app narrow the replay window. When the
// candidate carries a published stage-0 envelope (or -envelope FILE is
// given), the replay also runs the cascade and reports the would-be
// short-circuit fraction plus the safety number: recorded malware
// verdicts the envelope would have suppressed.
//
// logverify scans a sample log's segments and reports record counts,
// torn-tail bytes (a crash mid-append; recovered on next open) and
// checksum-corrupted records. It exits non-zero when corruption is
// found, so CI can assert a SIGKILLed log recovered cleanly.
//
// status is the fleet observability view: it scrapes each node's
// /metrics twice (-window apart) and /debug/traces once, autodetects
// gateway vs shard roles from the metric families, and renders one
// merged table — per-shard verdict rates, p99 latency, shed rates,
// model versions, drift recommendations, gateway reroute counts and
// probe RTTs — plus the slowest captured traces with per-hop latency
// attribution. -json emits the same merged document for scripts.
//
// publish -reference profiles the deterministic synthetic corpus and
// stores the training-time feature distribution alongside the model, so
// smartserve can monitor live traffic for drift against it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"twosmart/internal/anomaly"
	"twosmart/internal/cli"
	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/drift"
	"twosmart/internal/fleet"
	"twosmart/internal/parallel"
	"twosmart/internal/persist"
	"twosmart/internal/registry"
	"twosmart/internal/rollout"
	"twosmart/internal/samplelog"
	"twosmart/internal/shadow"
)

var app = cli.New("smartctl")

const usageHint = "usage: smartctl {publish|list|promote|rollback|diff|prune|backtest} -registry DIR [flags] | smartctl rollout {start|status|abort} -registry DIR [flags] | smartctl status -fleet ADDR,... [flags] | smartctl logverify -log DIR [flags]"

func main() {
	regDir := flag.String("registry", "", "model registry directory; required")
	modelIn := flag.String("model", "", "publish: detector blob to publish (JSON, from smartrain -model)")
	note := flag.String("note", "", "publish: free-form provenance recorded in the manifest")
	meta := flag.String("meta", "", "publish: training metadata as comma-separated k=v pairs")
	promote := flag.Bool("promote", false, "publish: make the new version active immediately")
	withRef := flag.Bool("reference", false, "publish: profile the synthetic corpus and store the feature distribution for drift monitoring")
	version := flag.Int("version", 0, "promote: version to make active; backtest: candidate version to replay (default: the latest)")
	keep := flag.Int("keep", 5, "prune: newest versions to keep (the active one always survives)")
	baseline := flag.Int("baseline", 0, "diff: baseline version (default: the active one)")
	candidate := flag.Int("candidate", 0, "diff/rollout start: candidate version (default: the latest)")
	scale := flag.Float64("scale", 0.01, "diff/-reference: synthetic corpus scale")
	seed := flag.Int64("seed", 1, "diff/-reference: synthetic corpus seed")
	workers := flag.Int("workers", 0, "diff/backtest: scoring parallelism (0 = NumCPU)")
	logDir := flag.String("log", "", "backtest/logverify: sample log directory (written by smartserve -samplelog)")
	appFilter := flag.String("app", "", "backtest: replay only this application's records")
	fromTS := flag.String("from", "", "backtest: replay window start, inclusive (RFC3339, e.g. 2026-08-07T12:00:00Z)")
	toTS := flag.String("to", "", "backtest: replay window end, inclusive (RFC3339)")
	envelopeIn := flag.String("envelope", "", "publish: stage-0 anomaly envelope (JSON, from smartrain -envelope) to store with the model; backtest: replay through this envelope instead of the candidate's published one")
	fleetAddrs := flag.String("fleet", "", "status: comma-separated telemetry addresses of the gateways and shards to scrape (their -telemetry-addr)")
	window := flag.Duration("window", 2*time.Second, "status: time between the two /metrics scrapes that anchor the rate columns")
	top := flag.Int("top", 5, "status: slowest traces to show")
	jsonOut := flag.Bool("json", false, "status/backtest/logverify/rollout status: emit the result as JSON instead of text")
	canaryShard := flag.String("canary-shard", "", "rollout start: the canary shard's -shard-id (the registry pin key)")
	canaryAddr := flag.String("canary-addr", "", "rollout start: the canary shard's -telemetry-addr, scraped for canary-side evidence")
	baselineAddrs := flag.String("baseline-addrs", "", "rollout start: comma-separated -telemetry-addr of the shards staying on the baseline version")
	bake := flag.Duration("bake", 2*time.Minute, "rollout start: total bake window before the candidate may widen")
	every := flag.Duration("every", 0, "rollout start: gate evaluation cadence (0 = bake/4); each evaluation scrapes both sides twice, this far apart")
	convergeTimeout := flag.Duration("converge-timeout", 30*time.Second, "rollout start: how long the canary may take to start serving the candidate after the pin")
	maxDivergence := flag.Float64("max-divergence", 0, "rollout start: gate — max canary shadow divergence over each evaluation window (0 disables; skipped when the canary compared nothing in the window)")
	maxP99Ratio := flag.Float64("max-p99-ratio", 0, "rollout start: gate — max canary/baseline p99 latency ratio (0 disables)")
	minSamples := flag.Float64("min-samples", 50, "rollout start: gate — min canary verdicts per evaluation window, so an idle canary cannot pass (0 disables)")

	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, usageHint)
		os.Exit(2)
	}
	cmd := os.Args[1]
	os.Args = append(os.Args[:1], os.Args[2:]...)
	// rollout carries its own action word before the flags.
	var rolloutAction string
	if cmd == "rollout" {
		if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
			fmt.Fprintln(os.Stderr, "usage: smartctl rollout {start|status|abort} -registry DIR [flags]")
			os.Exit(2)
		}
		rolloutAction = os.Args[1]
		os.Args = append(os.Args[:1], os.Args[2:]...)
	}
	flag.Parse()
	ctx := app.Start()
	defer app.Close()

	// status talks to running processes, not to a registry directory.
	if cmd == "status" {
		runStatus(ctx, *fleetAddrs, *window, *top, *jsonOut)
		return
	}
	// logverify only reads the sample log, no registry needed.
	if cmd == "logverify" {
		runLogVerify(*logDir, *jsonOut)
		return
	}

	if *regDir == "" {
		app.Fatal(fmt.Errorf("-registry is required (%s)", usageHint))
	}
	reg, err := registry.Open(*regDir)
	if err != nil {
		app.Fatal(err)
	}

	switch cmd {
	case "publish":
		runPublish(reg, *modelIn, *note, *meta, *envelopeIn, *withRef, *promote, *scale, *seed)
	case "list":
		runList(reg)
	case "promote":
		if *version < 1 {
			app.Fatal(fmt.Errorf("promote needs -version N"))
		}
		e, err := reg.Promote(*version)
		if err != nil {
			app.Fatal(err)
		}
		fmt.Printf("active v%d (sha256 %s)\n", e.Version, short(e.SHA256))
	case "rollback":
		e, err := reg.Rollback()
		if err != nil {
			app.Fatal(err)
		}
		fmt.Printf("rolled back, active v%d (sha256 %s)\n", e.Version, short(e.SHA256))
	case "diff":
		runDiff(ctx, reg, *baseline, *candidate, *scale, *seed, *workers)
	case "backtest":
		runBacktest(ctx, reg, *logDir, *version, *appFilter, *fromTS, *toTS, *envelopeIn, *workers, *jsonOut)
	case "rollout":
		switch rolloutAction {
		case "start":
			runRolloutStart(ctx, reg, rollout.Config{
				Candidate:       *candidate,
				CanaryShard:     *canaryShard,
				CanaryAddr:      *canaryAddr,
				BaselineAddrs:   splitAddrs(*baselineAddrs),
				Bake:            *bake,
				Every:           *every,
				ConvergeTimeout: *convergeTimeout,
				Gates: rollout.Gates{
					MaxDivergence: *maxDivergence,
					MaxP99Ratio:   *maxP99Ratio,
					MinSamples:    *minSamples,
				},
			})
		case "status":
			runRolloutStatus(reg, *jsonOut)
		case "abort":
			if err := rollout.RequestAbort(reg); err != nil {
				app.Fatal(err)
			}
			fmt.Println("abort requested; the running controller will unpin the canary at its next poll")
		default:
			app.Fatal(fmt.Errorf("unknown rollout action %q (want start, status or abort)", rolloutAction))
		}
	case "prune":
		removed, err := reg.Prune(*keep)
		if err != nil {
			app.Fatal(err)
		}
		for _, e := range removed {
			fmt.Printf("removed v%d (sha256 %s)\n", e.Version, short(e.SHA256))
		}
		fmt.Printf("pruned %d version(s)\n", len(removed))
	default:
		app.Fatal(fmt.Errorf("unknown command %q (%s)", cmd, usageHint))
	}
}

// runStatus scrapes every fleet node's /metrics (twice, window apart)
// and /debug/traces, and renders the merged view: per-shard verdict
// rates, p99 latency, shed rates, model versions and drift state, the
// gateway's per-shard forwarding and probe RTTs, and the slowest traces
// with per-hop attribution.
func runStatus(ctx context.Context, fleetAddrs string, window time.Duration, top int, jsonOut bool) {
	if fleetAddrs == "" {
		app.Fatal(fmt.Errorf("status needs -fleet ADDR,... (each node's -telemetry-addr)"))
	}
	addrs := strings.Split(fleetAddrs, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	st, err := fleet.CollectStatus(ctx, addrs, fleet.CollectConfig{Window: window, Top: top})
	if err != nil {
		app.Fatal(err)
	}
	if jsonOut {
		if err := st.WriteJSON(os.Stdout); err != nil {
			app.Fatal(err)
		}
		return
	}
	st.Render(os.Stdout)
}

// splitAddrs splits a comma-separated address list, trimming whitespace
// and dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runRolloutStart drives one staged canary rollout to a terminal phase
// and prints the outcome with its gate evidence. Exit status: 0 only
// when the candidate widened; a rollback or abort exits 1 so CI and
// scripts can branch on it.
func runRolloutStart(ctx context.Context, reg *registry.Registry, cfg rollout.Config) {
	cfg.Registry = reg
	cfg.Telemetry = app.Telemetry
	cfg.Log = app.Log
	if cfg.Candidate == 0 {
		m, err := reg.Manifest()
		if err != nil {
			app.Fatal(err)
		}
		e, ok := m.Latest()
		if !ok {
			app.Fatal(fmt.Errorf("rollout start: registry is empty, nothing to roll out"))
		}
		cfg.Candidate = e.Version
	}
	ctrl, err := rollout.New(cfg)
	if err != nil {
		app.Fatal(err)
	}
	st, err := ctrl.Run(ctx)
	if err != nil {
		app.Fatal(err)
	}
	renderRollout(st)
	if st.Phase != rollout.PhaseWidened {
		app.Close()
		os.Exit(1)
	}
}

// runRolloutStatus renders the durable rollout document — phase,
// gates, and the canary-vs-baseline evidence trail.
func runRolloutStatus(reg *registry.Registry, jsonOut bool) {
	st, err := rollout.ReadState(reg)
	if err != nil {
		app.Fatal(err)
	}
	if st == nil {
		app.Fatal(fmt.Errorf("rollout status: no rollout has been run against this registry"))
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			app.Fatal(err)
		}
		return
	}
	renderRollout(st)
}

// renderRollout prints the human-readable rollout summary: identity,
// gates, per-evaluation evidence, and why the terminal phase was
// reached.
func renderRollout(st *rollout.State) {
	fmt.Printf("rollout %s: candidate v%d vs baseline v%d (canary shard %s)\n",
		st.Phase, st.Candidate, st.Baseline, st.CanaryShard)
	fmt.Printf("  started %s, updated %s, bake %s\n",
		st.StartedAt.Format(time.RFC3339), st.UpdatedAt.Format(time.RFC3339),
		time.Duration(st.BakeSeconds*float64(time.Second)))
	fmt.Printf("  gates: max-divergence %g, max-p99-ratio %g, min-samples %g\n",
		st.Gates.MaxDivergence, st.Gates.MaxP99Ratio, st.Gates.MinSamples)
	if len(st.Evaluations) > 0 {
		fmt.Printf("  evidence (%d evaluation(s)):\n", len(st.Evaluations))
		fmt.Printf("    %-22s %-6s %-14s %-14s %-10s %-10s %s\n",
			"AT", "PASS", "CANARY V/S", "BASELINE V/S", "P99 RATIO", "DIVERGE", "DRIFT")
		for _, ev := range st.Evaluations {
			diverge := "-"
			if ev.Divergence >= 0 {
				diverge = fmt.Sprintf("%.4f", ev.Divergence)
			}
			drift := "ok"
			if ev.DriftRetrain {
				drift = "RETRAIN"
			}
			fmt.Printf("    %-22s %-6t %-14.1f %-14.1f %-10.2f %-10s %s\n",
				ev.At.Format("2006-01-02T15:04:05Z"), ev.Pass,
				ev.Canary.VerdictRate, ev.Baseline.VerdictRate, ev.P99Ratio, diverge, drift)
			for _, f := range ev.Failures {
				fmt.Printf("      FAIL %s\n", f)
			}
		}
	}
	if st.Reason != "" {
		fmt.Printf("  reason: %s\n", st.Reason)
	}
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// trainingSet reproduces the deterministic synthetic corpus in the
// model's feature space, the shared sample source for drift references
// and version diffs.
func trainingSet(features []string, scale float64, seed int64) (*dataset.Dataset, error) {
	data, err := corpus.Collect(corpus.Config{
		Scale:      scale,
		Seed:       seed,
		Omniscient: true,
		Progress:   app.Progress("profiling corpus"),
		Telemetry:  app.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return data.SelectByName(features)
}

func runPublish(reg *registry.Registry, modelIn, note, meta, envelopeIn string, withRef, promote bool, scale float64, seed int64) {
	if modelIn == "" {
		app.Fatal(fmt.Errorf("publish needs -model det.json"))
	}
	blob, err := os.ReadFile(modelIn)
	if err != nil {
		app.Fatal(err)
	}
	opts := registry.PublishOptions{Note: note, Promote: promote}
	if envelopeIn != "" {
		opts.Envelope = loadEnvelope(envelopeIn)
	}
	if meta != "" {
		opts.TrainMeta = map[string]string{}
		for _, pair := range strings.Split(meta, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				app.Fatal(fmt.Errorf("publish -meta entry %q is not k=v", pair))
			}
			opts.TrainMeta[k] = v
		}
	}
	if withRef {
		det, err := core.UnmarshalDetector(blob)
		if err != nil {
			app.Fatal(err)
		}
		data, err := trainingSet(det.FeatureNames(), scale, seed)
		if err != nil {
			app.Fatal(err)
		}
		ref, err := drift.BuildReference(data, 0)
		if err != nil {
			app.Fatal(err)
		}
		opts.Reference = ref
	}
	e, err := reg.Publish(blob, opts)
	if err != nil {
		app.Fatal(err)
	}
	state := "published"
	if promote {
		state = "published and promoted"
	}
	fmt.Printf("%s v%d (sha256 %s, %d bytes)\n", state, e.Version, short(e.SHA256), e.Size)
	if opts.Envelope != nil {
		fmt.Printf("  stage-0 envelope: %d features, threshold %.4g\n",
			opts.Envelope.NumFeatures(), opts.Envelope.Threshold)
	}
}

// loadEnvelope reads a stage-0 anomaly envelope written by smartrain
// -envelope.
func loadEnvelope(path string) *anomaly.Envelope {
	blob, err := os.ReadFile(path)
	if err != nil {
		app.Fatal(err)
	}
	env, err := persist.UnmarshalEnvelope(blob)
	if err != nil {
		app.Fatal(fmt.Errorf("envelope %s: %w", path, err))
	}
	return env
}

func runList(reg *registry.Registry) {
	m, err := reg.Manifest()
	if err != nil {
		app.Fatal(err)
	}
	if len(m.Models) == 0 {
		fmt.Println("registry is empty")
		return
	}
	fmt.Printf("%-8s %-14s %-8s %-20s %-6s %-8s %s\n", "VERSION", "SHA256", "SIZE", "CREATED", "DRIFT", "CASCADE", "NOTE")
	for _, e := range m.Models {
		mark := " "
		if e.Version == m.Active {
			mark = "*"
		}
		ref := "-"
		if e.Reference != nil {
			ref = "yes"
		}
		env := "-"
		if e.Envelope != nil {
			env = "yes"
		}
		fmt.Printf("%s%-7d %-14s %-8d %-20s %-6s %-8s %s\n",
			mark, e.Version, short(e.SHA256), e.Size,
			e.CreatedAt.Format("2006-01-02 15:04:05"), ref, env, e.Note)
	}
}

func runDiff(ctx context.Context, reg *registry.Registry, baseVer, candVer int, scale float64, seed int64, workers int) {
	m, err := reg.Manifest()
	if err != nil {
		app.Fatal(err)
	}
	if baseVer == 0 {
		baseVer = m.Active
	}
	if candVer == 0 {
		if e, ok := m.Latest(); ok {
			candVer = e.Version
		}
	}
	if baseVer == 0 || candVer == 0 {
		app.Fatal(fmt.Errorf("diff needs -baseline and -candidate (no active/latest version to default to)"))
	}
	base, baseEntry, err := reg.Load(baseVer)
	if err != nil {
		app.Fatal(err)
	}
	cand, _, err := reg.Load(candVer)
	if err != nil {
		app.Fatal(err)
	}
	data, err := trainingSet(baseEntry.Features, scale, seed)
	if err != nil {
		app.Fatal(err)
	}
	samples := make([][]float64, data.Len())
	for i, ins := range data.Instances {
		samples[i] = ins.Features
	}
	rep, err := shadow.Evaluate(ctx, base, cand, samples, parallel.Options{Workers: workers})
	if err != nil {
		app.Fatal(err)
	}
	rep.CandidateVersion = candVer
	fmt.Printf("diff v%d -> v%d over %d samples\n", baseVer, candVer, rep.Scored)
	printReport(rep)
}

// printReport prints a shadow report: its divergence and score-delta
// lines, then the caller's notes (whole lines), then one line per class
// in name order.
func printReport(rep shadow.Report, notes ...string) {
	fmt.Printf("  verdict divergence: %.4f (%d disagreements)\n", rep.VerdictDivergence, rep.Disagreements)
	fmt.Printf("  score delta: mean abs %.4f, max %.4f\n", rep.MeanAbsScoreDelta, rep.MaxScoreDelta)
	for _, note := range notes {
		fmt.Println(note)
	}
	classes := make([]string, 0, len(rep.PerClass))
	for name := range rep.PerClass {
		classes = append(classes, name)
	}
	sort.Strings(classes)
	for _, name := range classes {
		cs := rep.PerClass[name]
		fmt.Printf("  class %-10s observed %-6d disagreed %-6d mean abs delta %.4f\n",
			name, cs.Observed, cs.Disagreed, cs.MeanAbsDelta)
	}
}

// parseWindowTS parses one -from/-to bound; empty means unbounded.
func parseWindowTS(flagName, val string) int64 {
	if val == "" {
		return 0
	}
	t, err := time.Parse(time.RFC3339Nano, val)
	if err != nil {
		app.Fatal(fmt.Errorf("backtest -%s %q is not RFC3339: %w", flagName, val, err))
	}
	return t.UnixNano()
}

// runBacktest replays a recorded sample log through a published candidate
// version at full speed and prints the divergence against the verdicts
// the fleet actually served — runDiff's report shape over real traffic.
func runBacktest(ctx context.Context, reg *registry.Registry, logDir string, candVer int, appFilter, fromTS, toTS, envelopeIn string, workers int, jsonOut bool) {
	if logDir == "" {
		app.Fatal(fmt.Errorf("backtest needs -log DIR (a smartserve -samplelog directory)"))
	}
	if candVer == 0 {
		m, err := reg.Manifest()
		if err != nil {
			app.Fatal(err)
		}
		e, ok := m.Latest()
		if !ok {
			app.Fatal(fmt.Errorf("backtest: registry is empty, nothing to replay through"))
		}
		candVer = e.Version
	}
	cand, entry, err := reg.Load(candVer)
	if err != nil {
		app.Fatal(err)
	}
	// Explicit -envelope wins; otherwise the candidate's published
	// envelope rides along, so a plain backtest evaluates the cascade the
	// fleet would actually run with that version.
	envelope := entry.Envelope
	if envelopeIn != "" {
		envelope = loadEnvelope(envelopeIn)
	}
	res, err := samplelog.Backtest(ctx, logDir, cand, samplelog.BacktestOptions{
		Version:   candVer,
		Workers:   workers,
		FromNanos: parseWindowTS("from", fromTS),
		ToNanos:   parseWindowTS("to", toTS),
		App:       appFilter,
		Envelope:  envelope,
	})
	if err != nil {
		app.Fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			app.Fatal(err)
		}
		return
	}
	fmt.Printf("backtest v%d over %d recorded verdicts (log: %d records in %d segments)\n",
		candVer, res.Replayed, res.Log.Records, len(res.Log.Segments))
	fmt.Printf("  skipped: %d unscored, %d outside window/app filter\n",
		res.SkippedUnscored, res.SkippedFiltered)
	if res.Log.TornBytes > 0 || res.Log.Corrupted > 0 {
		fmt.Printf("  log integrity: torn tail %d bytes, corrupted %d record(s)\n",
			res.Log.TornBytes, res.Log.Corrupted)
	}
	var notes []string
	if res.Report.Errors > 0 {
		notes = append(notes, fmt.Sprintf("  scoring errors: %d", res.Report.Errors))
	}
	if c := res.Cascade; c != nil {
		notes = append(notes,
			fmt.Sprintf("  cascade (threshold %.4g): %d short-circuited (%.1f%%), %d passed on",
				c.Threshold, c.ShortCircuited, 100*c.ShortFraction, c.PassedOn),
			fmt.Sprintf("  cascade safety: %d recorded malware verdict(s) would have short-circuited",
				c.MalwareShortCircuited))
	}
	printReport(res.Report, notes...)
}

// runLogVerify scans a sample log and reports its integrity: record and
// segment counts, the crash-torn tail (benign, truncated on reopen) and
// checksum-corrupted records (never benign — non-zero exits 1 so the CI
// crash-recovery step can assert a SIGKILLed log recovered cleanly).
func runLogVerify(logDir string, jsonOut bool) {
	if logDir == "" {
		app.Fatal(fmt.Errorf("logverify needs -log DIR (a smartserve -samplelog directory)"))
	}
	rep, err := samplelog.Verify(logDir)
	if err != nil {
		app.Fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			app.Fatal(err)
		}
	} else {
		fmt.Printf("sample log %s: %d record(s) in %d segment(s), %d scored\n",
			logDir, rep.Records, len(rep.Segments), rep.ScoredRecords)
		if rep.Records > 0 {
			fmt.Printf("  window: %s .. %s\n",
				time.Unix(0, rep.FirstNanos).UTC().Format(time.RFC3339Nano),
				time.Unix(0, rep.LastNanos).UTC().Format(time.RFC3339Nano))
		}
		fmt.Printf("  torn tail bytes: %d\n", rep.TornBytes)
		fmt.Printf("  corrupted records: %d\n", rep.Corrupted)
	}
	if rep.Corrupted > 0 {
		app.Fatal(fmt.Errorf("logverify: %d corrupted record(s) in %s", rep.Corrupted, logDir))
	}
}
