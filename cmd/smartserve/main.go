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
// With -registry the server supports zero-downtime model swaps: SIGHUP
// re-reads the registry's active version, and -watch polls it so a
// `smartctl promote` lands without any signal at all. In-flight streams
// finish on the model generation they opened with; new streams pick up
// the promoted version. -shadow N scores registry version N side-by-side
// off the hot path and reports verdict divergence at exit; a published
// drift reference turns on live feature-distribution monitoring, whose
// verdict ("ok" / "retrain-or-rollback") lands in the -report document.
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
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"twosmart"
	"twosmart/internal/anomaly"
	"twosmart/internal/cli"
	"twosmart/internal/core"
	"twosmart/internal/drift"
	"twosmart/internal/monitor"
	"twosmart/internal/persist"
	"twosmart/internal/registry"
	"twosmart/internal/samplelog"
	"twosmart/internal/serve"
	"twosmart/internal/shadow"
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
		initial, err = loadFromFile(*modelIn)
		if err == nil && *envelopeIn != "" {
			initial.Envelope, err = loadEnvelope(*envelopeIn)
		}
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
		Detector:     initial.Detector,
		Model:        initial.Name,
		ModelVersion: initial.Version,
		Drift:        initial.Drift,
		Envelope:     initial.Envelope,
		Monitor:      monitor.Config{Alpha: *alpha, RaiseThreshold: *raise, ClearThreshold: *clear, Telemetry: app.Telemetry},
		QueueDepth:   *queueDepth,
		IdleTimeout:  *idleTimeout,
		Telemetry:    app.Telemetry,
		Tracer:       tracer,
		SampleLog:    sampleLog,
		Log:          app.Log,
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

	// Hot-swap triggers: SIGHUP always re-reads the registry; -watch
	// polls it so a promote lands without any operator signal.
	if reg != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					swapFromRegistry(srv, reg, *driftAlert, *shardID, "SIGHUP")
				}
			}
		}()
		if *watch {
			// WatchEffective tracks this shard's pinned-else-active
			// version, so a pin-table-only manifest write (smartctl
			// rollout start) swaps the canary without any promotion.
			go reg.WatchEffective(ctx, *watchInterval, *shardID, initial.Version,
				func(registry.Entry) { swapFromRegistry(srv, reg, *driftAlert, *shardID, "watch") },
				func(err error) { app.Log.Warn("registry watch", "err", err) })
		}
		if *shardID != "" {
			// The pinned gauge can change without an effective-version
			// change (widen promotes the candidate, then unpins), so it
			// refreshes on its own poll rather than riding the watch.
			go func() {
				tick := time.NewTicker(*watchInterval)
				defer tick.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
						updatePinnedGauge(reg, *shardID)
					}
				}
			}()
		}
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

// loadFromFile loads a detector blob from disk, logging its SHA-256 so
// operators can tie the running process to an artifact.
func loadFromFile(path string) (serve.Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return serve.Model{}, err
	}
	det, err := twosmart.LoadDetector(blob)
	if err != nil {
		return serve.Model{}, err
	}
	sum := sha256.Sum256(blob)
	sha := hex.EncodeToString(sum[:])
	app.Log.Info("model loaded", "path", path, "sha256", sha, "features", det.NumFeatures())
	return serve.Model{Detector: det, Name: filepath.Base(path)}, nil
}

// registryModel loads the shard's effective registry version — its pin
// when -shard-id names one, the active version otherwise (integrity
// checked against the manifest) — refreshes the pinned gauge, and builds
// the servable generation: its drift monitor when the entry carries a
// training-time feature reference, and its stage-0 envelope when one was
// published.
func registryModel(reg *registry.Registry, alertPSI float64, shardID string) (serve.Model, registry.Entry, error) {
	det, entry, err := reg.LoadEffective(shardID)
	if err != nil {
		return serve.Model{}, entry, err
	}
	updatePinnedGauge(reg, shardID)
	m := serve.Model{
		Detector: det,
		Version:  entry.Version,
		Name:     fmt.Sprintf("%s@v%d", filepath.Base(reg.Root()), entry.Version),
	}
	m.Drift, err = driftMonitorFor(det, entry, alertPSI)
	if err != nil {
		return serve.Model{}, entry, err
	}
	m.Envelope, err = cascadeEnvelopeFor(entry)
	if err != nil {
		return serve.Model{}, entry, err
	}
	return m, entry, nil
}

// loadEnvelope reads a stage-0 anomaly envelope written by smartrain
// -envelope.
func loadEnvelope(path string) (*anomaly.Envelope, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	env, err := persist.UnmarshalEnvelope(blob)
	if err != nil {
		return nil, fmt.Errorf("envelope %s: %w", path, err)
	}
	app.Log.Info("envelope loaded", "path", path,
		"features", env.NumFeatures(), "threshold", env.Threshold)
	return env, nil
}

// cascadeEnvelopeFor returns the entry's published stage-0 envelope, or
// nil when the entry predates envelope publishing — older registries keep
// serving, just with the cascade disabled.
func cascadeEnvelopeFor(entry registry.Entry) (*anomaly.Envelope, error) {
	env, err := entry.CascadeEnvelope()
	if err != nil {
		if errors.Is(err, registry.ErrNoEnvelope) {
			app.Log.Info("registry entry has no stage-0 envelope; cascade disabled", "version", entry.Version)
			return nil, nil
		}
		return nil, err
	}
	return env, nil
}

// updatePinnedGauge keeps serve_rollout_pinned at 1 while this shard is
// the target of a registry pin (a baking canary) and 0 when it follows
// the active version — the fleet status plane renders it as the ROLLOUT
// column. Manifest read errors leave the gauge untouched; the next poll
// retries.
func updatePinnedGauge(reg *registry.Registry, shardID string) {
	if shardID == "" {
		return
	}
	m, err := reg.Manifest()
	if err != nil {
		return
	}
	var pinned float64
	if _, ok := m.Pins[shardID]; ok {
		pinned = 1
	}
	app.Telemetry.Gauge("serve_rollout_pinned").Set(pinned)
}

func driftMonitorFor(det *core.Detector, entry registry.Entry, alertPSI float64) (*drift.Monitor, error) {
	if entry.Reference == nil {
		return nil, nil
	}
	mon, err := drift.NewMonitor(entry.Reference, drift.Config{AlertPSI: alertPSI, Telemetry: app.Telemetry})
	if err != nil {
		return nil, fmt.Errorf("registry v%d drift reference: %w", entry.Version, err)
	}
	if want := det.NumFeatures(); mon.NumFeatures() != want {
		return nil, fmt.Errorf("registry v%d drift reference is %d-wide, detector expects %d features",
			entry.Version, mon.NumFeatures(), want)
	}
	return mon, nil
}

// swapFromRegistry re-reads the shard's effective registry version
// (pinned-else-active) and promotes it into the running server.
// In-flight streams keep the generation they opened with; a
// same-version trigger is a logged no-op.
func swapFromRegistry(srv *serve.Server, reg *registry.Registry, alertPSI float64, shardID, trigger string) {
	cur := srv.ActiveModel()
	next, entry, err := registryModel(reg, alertPSI, shardID)
	if err != nil {
		app.Log.Error("hot swap failed", "trigger", trigger, "err", err)
		return
	}
	if entry.Version == cur.Version {
		app.Log.Info("hot swap skipped: version unchanged", "trigger", trigger, "version", entry.Version)
		return
	}
	if err := srv.Swap(next); err != nil {
		app.Log.Error("hot swap failed", "trigger", trigger, "version", entry.Version, "err", err)
		return
	}
	app.Log.Info("hot swap complete", "trigger", trigger,
		"from", cur.Version, "to", entry.Version, "sha256", entry.SHA256)
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
