// Command smartserve is the fleet-scale streaming detection service: it
// loads a trained detector (from smartrain -model, or the active version
// of a smartctl-managed registry), listens for agent connections
// speaking the internal/wire protocol and streams verdicts back for
// every HPC sample received. Each (connection, app) stream gets its own
// compiled detector and smoothing monitor, and each connection scores
// its streams in arrival order on its own worker goroutine, so cores are
// shared out by connection. An overloaded server sheds the oldest queued
// samples instead of building unbounded backlog.
//
// With -registry the server supports zero-downtime model swaps. One loop
// follows the registry: SIGHUP re-reads it, and -watch polls it every
// -watch-interval so a `smartctl promote` (or, with -shard-id, a rollout
// pin) lands without any signal at all. In-flight streams finish on the
// model generation they opened with; new streams pick up the promoted
// version. -shadow N scores registry version N side-by-side off the hot
// path and reports verdict divergence at exit; a published drift
// reference turns on live feature-distribution monitoring of the active
// version, whose verdict ("ok" / "retrain-or-rollback") lands in the
// -report document.
//
// With -samplelog DIR every scored sample is recorded to a segmented,
// checksummed, append-only log (features, verdict, score, model version)
// written off the hot path — the substrate for `smartctl backtest` and
// `smartload -replay`. A slow log disk sheds records (counted in
// samplelog_dropped_total) instead of ever stalling verdicts.
//
// With -envelope (or a registry entry published with an envelope) the
// server runs the stage-0 anomaly cascade ahead of the detector: samples
// inside the benign envelope, at its calibrated threshold, short-circuit
// to a benign verdict without touching stage 1/2. Without an envelope
// the cascade is off. Cascade cost and effectiveness are exported as
// cascade_* metrics and a stage0 trace hop.
//
// On SIGINT/SIGTERM the server drains gracefully — stops accepting,
// scores and flushes everything already queued — and exits 130.
//
// Behind a smartgw gateway, run each instance with -shard: the gateway
// health-checks shards over the same wire protocol and consistent-hashes
// (agent, app) streams across them. -idle-timeout (defaulted to 5m by
// -shard) reaps connections whose peer stops sending entirely, so a dead
// agent or gateway cannot pin stream and ring memory forever.
//
// Usage:
//
//	smartrain -runtime -model det.json -envelope env.json
//	smartserve -model det.json -addr :7643
//	smartserve -model det.json -envelope env.json
//	smartserve -registry models/ -watch -shadow 3 -report run.json
//	smartserve -model det.json -shard -addr :7644   # behind smartgw
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"twosmart"
	"twosmart/internal/cli"
	"twosmart/internal/drift"
	"twosmart/internal/monitor"
	"twosmart/internal/persist"
	"twosmart/internal/registry"
	"twosmart/internal/samplelog"
	"twosmart/internal/serve"
	"twosmart/internal/shadow"
	"twosmart/internal/telemetry"
	"twosmart/internal/trace"
)

var app = cli.New("smartserve")

func main() {
	addr := flag.String("addr", "127.0.0.1:7643", "TCP listen address (use :0 for a random port; the bound address is printed on stdout)")
	modelIn := flag.String("model", "", "detector to serve (JSON, from smartrain -model); this or -registry is required")
	regDir := flag.String("registry", "", "serve the active version of this model registry (see smartctl) instead of -model")
	watch := flag.Bool("watch", false, "with -registry: poll the manifest and hot-swap when the active version changes")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "with -watch: manifest poll interval")
	shadowVer := flag.Int("shadow", 0, "with -registry: score this version side-by-side off the hot path and report divergence at exit")
	driftAlert := flag.Float64("drift-alert", 0, "PSI above which drift monitoring recommends retrain-or-rollback (0 = default 0.25; needs a registry entry published with -reference)")
	reportOut := flag.String("report", "", "write the machine-readable run report (JSON: stage timings, drift assessment, shadow divergence) to this file (- for stdout)")
	queueDepth := flag.Int("queue-depth", 4096, "per-connection ingress queue depth; beyond it the oldest samples are shed")
	shard := flag.Bool("shard", false, "run as a backend shard behind smartgw: tags logs with the shard role and defaults -idle-timeout to 5m so abandoned gateway connections are reaped")
	shardID := flag.String("shard-id", "", "stable shard identity for per-shard version pins (the registry pin table key smartctl rollout targets); implies -shard. With -registry the shard serves its pinned version when one exists, the active version otherwise")
	idleTimeout := flag.Duration("idle-timeout", 0, "reap connections that send no frame (not even a Heartbeat) for this long (0 = never; -shard defaults it to 5m)")
	alpha := flag.Float64("alpha", 0, "EWMA smoothing coefficient in (0,1] (0 = monitor default)")
	raise := flag.Float64("raise", 0, "smoothed score above which the alarm raises (0 = monitor default)")
	clear := flag.Float64("clear", 0, "smoothed score below which the alarm clears (0 = monitor default)")
	traceSample := flag.Int("trace-sample", 1024, "capture one end-to-end trace per this many scored samples (0 = tracing off; served at /debug/traces with -telemetry-addr)")
	traceDepth := flag.Int("trace-depth", 256, "trace ring capacity (rounded up to a power of two)")
	sampleLogDir := flag.String("samplelog", "", "record every scored sample (features, verdict, score, model version) to this durable log directory for smartctl backtest / smartload -replay; written off the hot path, a slow disk sheds records instead of stalling verdicts")
	sampleLogSegment := flag.Int64("samplelog-segment", 8<<20, "with -samplelog: rotate segments at this many bytes")
	sampleLogRetain := flag.Int("samplelog-retain", 64, "with -samplelog: keep at most this many segments, pruning oldest-first (-1 = unbounded)")
	envelopeIn := flag.String("envelope", "", "with -model: stage-0 anomaly envelope (JSON, from smartrain -envelope) enabling the detection cascade; with -registry the active entry's published envelope is used instead")
	flag.Parse()
	ctx := app.Start()
	defer app.Close()

	tracer := trace.New(trace.Config{SampleEvery: *traceSample, Depth: *traceDepth})
	app.DebugHandle("/debug/traces", tracer.Handler())

	if *shardID != "" {
		*shard = true
	}
	if *shard {
		app.Log = app.Log.With("role", "shard")
		if *shardID != "" {
			app.Log = app.Log.With("shard_id", *shardID)
		}
		if *idleTimeout == 0 {
			*idleTimeout = 5 * time.Minute
		}
	}

	if (*modelIn == "") == (*regDir == "") {
		app.Fatal(fmt.Errorf("exactly one of -model or -registry is required (train one with: smartrain -runtime -model det.json)"))
	}

	var (
		reg     *registry.Registry
		initial serve.Model
		err     error
	)
	if *regDir != "" {
		if *envelopeIn != "" {
			app.Fatal(fmt.Errorf("-envelope only applies with -model; registry entries carry their envelope (publish one with: smartctl publish -envelope env.json)"))
		}
		reg, err = registry.Open(*regDir)
		if err != nil {
			app.Fatal(err)
		}
		var entry registry.Entry
		initial, entry, err = registryModel(reg, *driftAlert, *shardID)
		if err == nil {
			app.Log.Info("model loaded", "registry", reg.Root(), "version", entry.Version,
				"sha256", entry.SHA256, "features", initial.Detector.NumFeatures(),
				"drift", initial.Drift != nil, "envelope", initial.Envelope != nil)
		}
	} else {
		initial, err = fileModel(*modelIn, *envelopeIn)
	}
	if err != nil {
		app.Fatal(err)
	}

	var sampleLog *samplelog.Writer
	if *sampleLogDir != "" {
		sampleLog, err = samplelog.OpenWriter(samplelog.WriterConfig{
			Dir:          *sampleLogDir,
			SegmentBytes: *sampleLogSegment,
			MaxSegments:  *sampleLogRetain,
			Telemetry:    app.Telemetry,
		})
		if err != nil {
			app.Fatal(err)
		}
		app.Log.Info("sample log attached", "dir", *sampleLogDir,
			"segment_bytes", *sampleLogSegment, "retain", *sampleLogRetain)
	}

	srv, err := serve.New(serve.Config{
		Model:       initial,
		Monitor:     monitor.Config{Alpha: *alpha, RaiseThreshold: *raise, ClearThreshold: *clear, Telemetry: app.Telemetry},
		QueueDepth:  *queueDepth,
		IdleTimeout: *idleTimeout,
		Telemetry:   app.Telemetry,
		Tracer:      tracer,
		SampleLog:   sampleLog,
		Log:         app.Log,
	})
	if err != nil {
		app.Fatal(err)
	}
	if env := initial.Envelope; env != nil {
		app.Log.Info("stage-0 cascade enabled", "threshold", env.Threshold)
	}

	var sh *shadow.Shadow
	if *shadowVer != 0 {
		if reg == nil {
			app.Fatal(fmt.Errorf("-shadow needs -registry"))
		}
		cand, entry, err := reg.Load(*shadowVer)
		if err != nil {
			app.Fatal(err)
		}
		sh, err = shadow.New(cand, shadow.Config{Version: entry.Version, Telemetry: app.Telemetry})
		if err != nil {
			app.Fatal(err)
		}
		if err := srv.SetShadow(sh); err != nil {
			app.Fatal(err)
		}
		app.Log.Info("shadow scoring attached", "version", entry.Version, "sha256", entry.SHA256)
	}

	// One loop follows the registry. SIGHUP always wakes it; with -watch
	// (to swap) or -shard-id (for the pinned gauge) it also polls.
	if reg != nil {
		f := &follower{srv: srv, reg: reg, shardID: *shardID, alertPSI: *driftAlert,
			watch: *watch, log: app.Log, seen: initial.Version}
		if *shardID != "" {
			f.pinned = app.Telemetry.Gauge("serve_rollout_pinned")
			f.wake(false) // set the pinned gauge before the server listens
		}
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		var tick <-chan time.Time
		if *watch || *shardID != "" {
			if *watchInterval <= 0 {
				*watchInterval = 2 * time.Second
			}
			tick = time.NewTicker(*watchInterval).C
		}
		go f.run(ctx, hup, tick)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		app.Fatal(err)
	}
	// The bound address goes to stdout so scripts using -addr :0 can
	// capture it (logs go to stderr).
	fmt.Printf("listening %s\n", bound)
	app.Log.Info("serving detector",
		"model", initial.Name, "version", initial.Version,
		"features", srv.NumFeatures(), "addr", bound.String())

	serveErr := srv.Serve(ctx)
	finish(srv, sh, sampleLog, *reportOut)
	if serveErr != nil {
		app.Fatal(serveErr)
	}
	if ctx.Err() != nil {
		app.Log.Info("drained cleanly after signal")
		app.Close()
		os.Exit(cli.ExitInterrupted)
	}
}

// fileModel loads a detector blob from disk, logging its SHA-256 so
// operators can tie the running process to an artifact, plus the
// optional stage-0 envelope written by smartrain -envelope.
func fileModel(path, envelopePath string) (serve.Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return serve.Model{}, err
	}
	det, err := twosmart.LoadDetector(blob)
	if err != nil {
		return serve.Model{}, err
	}
	sum := sha256.Sum256(blob)
	app.Log.Info("model loaded", "path", path, "sha256", hex.EncodeToString(sum[:]), "features", det.NumFeatures())
	m := serve.Model{Detector: det, Name: filepath.Base(path)}
	if envelopePath == "" {
		return m, nil
	}
	blob, err = os.ReadFile(envelopePath)
	if err != nil {
		return serve.Model{}, err
	}
	if m.Envelope, err = persist.UnmarshalEnvelope(blob); err != nil {
		return serve.Model{}, fmt.Errorf("envelope %s: %w", envelopePath, err)
	}
	app.Log.Info("envelope loaded", "path", envelopePath,
		"features", m.Envelope.NumFeatures(), "threshold", m.Envelope.Threshold)
	return m, nil
}

// registryModel loads the shard's effective registry version — its pin
// when shardID names one, the active version otherwise (integrity
// checked against the manifest) — with a drift monitor when the entry
// carries a training-time feature reference and the entry's stage-0
// envelope (nil, cascade off, when none was published).
func registryModel(reg *registry.Registry, alertPSI float64, shardID string) (serve.Model, registry.Entry, error) {
	det, entry, err := reg.LoadEffective(shardID)
	if err != nil {
		return serve.Model{}, entry, err
	}
	m := serve.Model{
		Detector: det,
		Version:  entry.Version,
		Name:     fmt.Sprintf("%s@v%d", filepath.Base(reg.Root()), entry.Version),
		Envelope: entry.Envelope,
	}
	if entry.Reference != nil {
		m.Drift, err = drift.NewMonitor(entry.Reference, drift.Config{AlertPSI: alertPSI, Telemetry: app.Telemetry})
		if err != nil {
			return serve.Model{}, entry, fmt.Errorf("registry v%d drift reference: %w", entry.Version, err)
		}
	}
	return m, entry, nil
}

// follower keeps a server on its shard's effective registry version
// (pinned, else active). Each wake reads the manifest once, refreshes
// serve_rollout_pinned when the shard has an id, and swaps when the
// effective version differs from the active one.
type follower struct {
	srv      *serve.Server
	reg      *registry.Registry
	shardID  string
	alertPSI float64
	// watch lets polls swap; without it only SIGHUP does.
	watch bool
	log   *slog.Logger
	// pinned is serve_rollout_pinned (nil without a shard id): 1 while
	// the pin table targets this shard (a baking canary), 0 while it
	// follows the active version.
	pinned telemetry.Gauge
	// seen is the effective version the last swap attempt targeted. A
	// poll acts only when the effective version moves off it, so a
	// version that failed to load is retried on SIGHUP or once the
	// effective version moves again, not on every poll.
	seen int
}

// run wakes the follower on every SIGHUP and every tick until ctx ends;
// a nil tick channel never fires.
func (f *follower) run(ctx context.Context, hup <-chan os.Signal, tick <-chan time.Time) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			f.wake(true)
		case <-tick:
			f.wake(false)
		}
	}
}

// wake handles one SIGHUP (sighup) or poll. A manifest read error is
// logged and left for the next wake: a torn read must not end the loop.
func (f *follower) wake(sighup bool) {
	trigger := "watch"
	if sighup {
		trigger = "SIGHUP"
	}
	m, err := f.reg.Manifest()
	if err != nil {
		f.log.Warn("registry watch", "trigger", trigger, "err", err)
		return
	}
	if f.pinned != nil {
		_, ok := m.Pins[f.shardID]
		f.pinned.Set(btof(ok))
	}
	v := m.EffectiveVersion(f.shardID)
	if !sighup && (!f.watch || v == f.seen) {
		return
	}
	f.seen = v
	cur := f.srv.ActiveModel().Version
	if v == cur {
		f.log.Info("hot swap skipped: version unchanged", "trigger", trigger, "version", v)
		return
	}
	next, entry, err := registryModel(f.reg, f.alertPSI, f.shardID)
	if err == nil {
		err = f.srv.Swap(next)
	}
	if err != nil {
		f.log.Error("hot swap failed", "trigger", trigger, "version", v, "err", err)
		return
	}
	f.log.Info("hot swap complete", "trigger", trigger,
		"from", cur, "to", entry.Version, "sha256", entry.SHA256)
}

// finish detaches the shadow, drains and closes the sample log, folds
// the drift assessment, shadow divergence and log accounting into the
// run report, and writes it when -report is set.
func finish(srv *serve.Server, sh *shadow.Shadow, sampleLog *samplelog.Writer, reportOut string) {
	var shadowRep shadow.Report
	if sh != nil {
		if err := srv.SetShadow(nil); err != nil {
			app.Log.Warn("shadow detach", "err", err)
		}
		shadowRep = sh.Close()
		app.Log.Info("shadow verdict",
			"candidate_version", shadowRep.CandidateVersion,
			"scored", shadowRep.Scored, "dropped", shadowRep.Dropped,
			"divergence", shadowRep.VerdictDivergence)
	}
	var logStats samplelog.Stats
	if sampleLog != nil {
		var err error
		logStats, err = sampleLog.Close()
		if err != nil {
			app.Log.Warn("sample log close", "err", err)
		}
		app.Log.Info("sample log closed",
			"appended", logStats.Appended, "dropped", logStats.Dropped,
			"bytes", logStats.Bytes, "segments", logStats.Segments, "pruned", logStats.Pruned)
	}
	var driftRep drift.Report
	active := srv.ActiveModel()
	var cascadeShort, cascadePass uint64
	var cascadeFrac float64
	if active.Envelope != nil {
		cascadeShort = app.Telemetry.Counter("cascade_short_total").Value()
		cascadePass = app.Telemetry.Counter("cascade_pass_total").Value()
		if total := cascadeShort + cascadePass; total > 0 {
			cascadeFrac = float64(cascadeShort) / float64(total)
		}
		app.Log.Info("cascade summary",
			"short_circuited", cascadeShort, "passed_on", cascadePass,
			"short_fraction", cascadeFrac, "threshold", active.Envelope.Threshold)
	}
	if active.Drift != nil {
		driftRep = active.Drift.Snapshot()
		app.Log.Info("drift verdict",
			"samples", driftRep.Samples, "max_psi", driftRep.MaxPSI,
			"recommendation", driftRep.Recommendation)
	}
	if reportOut == "" {
		return
	}
	rep := app.Telemetry.Report(app.Tool)
	rep.Results["model_version"] = float64(active.Version)
	if active.Drift != nil {
		rep.Results["drift_samples"] = float64(driftRep.Samples)
		rep.Results["drift_max_psi"] = driftRep.MaxPSI
		rep.Results["drift_alert"] = btof(driftRep.Alert)
		rep.Notes = map[string]string{"drift_recommendation": driftRep.Recommendation}
	}
	if sh != nil {
		rep.Results["shadow_candidate_version"] = float64(shadowRep.CandidateVersion)
		rep.Results["shadow_scored"] = float64(shadowRep.Scored)
		rep.Results["shadow_dropped"] = float64(shadowRep.Dropped)
		rep.Results["shadow_verdict_divergence"] = shadowRep.VerdictDivergence
	}
	if active.Envelope != nil {
		rep.Results["cascade_short_circuited"] = float64(cascadeShort)
		rep.Results["cascade_passed_on"] = float64(cascadePass)
		rep.Results["cascade_short_fraction"] = cascadeFrac
		if rep.Notes == nil {
			rep.Notes = map[string]string{}
		}
		rep.Notes["cascade"] = fmt.Sprintf("enabled threshold=%g", active.Envelope.Threshold)
	}
	if sampleLog != nil {
		rep.Results["samplelog_appended"] = float64(logStats.Appended)
		rep.Results["samplelog_dropped"] = float64(logStats.Dropped)
		rep.Results["samplelog_bytes"] = float64(logStats.Bytes)
		rep.Results["samplelog_segments"] = float64(logStats.Segments)
	}
	if err := rep.WriteFile(reportOut); err != nil {
		app.Log.Error("write run report", "path", reportOut, "err", err)
		return
	}
	if reportOut != "-" {
		app.Log.Info("wrote run report", "path", reportOut)
	}
}

func btof(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
