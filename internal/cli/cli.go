// Package cli provides the shared runtime of the cmd tools: structured
// logging on log/slog (text by default, JSON behind -log-json), a root
// context cancelled by SIGINT/SIGTERM so every long-running path (corpus
// profiling, training, experiment sweeps) shuts down cleanly instead of
// being killed mid-write, a per-run telemetry registry, and the opt-in
// debug HTTP server behind -telemetry-addr.
package cli

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"twosmart/internal/telemetry"
)

// ExitInterrupted is the exit code for a signal-cancelled run, following
// the shell convention of 128+SIGINT.
const ExitInterrupted = 130

// App bundles one tool's shared runtime. Build it with New before flag
// registration, call Start after flag.Parse, and defer Close.
type App struct {
	// Tool is the command name used in logs and the run report.
	Tool string
	// Log is the tool's logger, ready after Start (also installed as
	// slog.Default).
	Log *slog.Logger
	// Telemetry is the run's metrics registry. It always exists — spans
	// and counters recorded here feed the -report artifact — but the
	// debug server only exposes it when -telemetry-addr is set.
	Telemetry *telemetry.Registry

	logJSON       bool
	quiet         bool
	telemetryAddr string

	stop   context.CancelFunc
	server *telemetry.Server
	mounts []mount // the DebugHandle calls, mounted by Start
}

// mount is one extra debug endpoint.
type mount struct {
	path string
	h    telemetry.Handler
}

// New builds the app and registers the shared flags (-log-json, -quiet,
// -telemetry-addr) on the default flag set. Call before flag.Parse.
func New(tool string) *App {
	a := &App{Tool: tool, Telemetry: telemetry.New()}
	flag.BoolVar(&a.logJSON, "log-json", false, "emit JSON logs instead of text")
	flag.BoolVar(&a.quiet, "quiet", false, "suppress progress and informational logs (warnings still print)")
	flag.StringVar(&a.telemetryAddr, "telemetry-addr", "",
		"serve /metrics (Prometheus), /healthz, /debug/vars, /debug/pprof/ and, on smartserve and smartgw, /debug/traces on this address (e.g. :8080, :0 for a random port; empty = disabled)")
	return a
}

// Start finalizes the logger from the parsed flags, installs the
// SIGINT/SIGTERM handler and, when -telemetry-addr is set, starts the
// debug server. The returned context is cancelled on the first signal; a
// second signal kills the process with the default disposition, so a stuck
// shutdown can still be forced.
func (a *App) Start() context.Context {
	level := slog.LevelInfo
	if a.quiet {
		level = slog.LevelWarn
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if a.logJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	a.Log = slog.New(h).With("tool", a.Tool)
	slog.SetDefault(a.Log)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	a.stop = stop

	if a.telemetryAddr != "" {
		srv, err := telemetry.StartServer(a.telemetryAddr, a.Telemetry)
		if err != nil {
			a.Fatal(err)
		}
		a.server = srv
		// Readiness follows the signal context: the first SIGINT/SIGTERM
		// starts the graceful drain, so /healthz flips to 503 while the
		// other endpoints keep serving the drain's telemetry.
		go func() {
			<-ctx.Done()
			srv.SetDraining()
		}()
		for _, m := range a.mounts {
			srv.Handle(m.path, m.h)
		}
		a.Log.Info("telemetry server listening", "addr", srv.Addr(), "endpoints", strings.Join(srv.Paths(), " "))
	}
	return ctx
}

// DebugHandle registers an extra handler (e.g. /debug/traces) that Start
// mounts on the debug server when -telemetry-addr is set. Call it before
// Start; it panics after.
func (a *App) DebugHandle(path string, h telemetry.Handler) {
	if a.Log != nil {
		panic("cli: DebugHandle called after Start")
	}
	a.mounts = append(a.mounts, mount{path, h})
}

// Quiet reports whether -quiet was set.
func (a *App) Quiet() bool { return a.quiet }

// Progress returns a progress callback (compatible with
// parallel.Options.OnProgress and corpus.Config.Progress) that logs label
// at roughly 10% increments, or nil when -quiet suppresses progress.
// Callers must honor the parallel contract that progress calls are
// serialized.
func (a *App) Progress(label string) func(done, total int) {
	if a.quiet {
		return nil
	}
	lastDecile := -1
	return func(done, total int) {
		decile := done * 10 / total
		if decile == lastDecile && done != total {
			return
		}
		lastDecile = decile
		a.Log.Info(label, "done", done, "total", total)
	}
}

// Close shuts the debug server down gracefully and releases the signal
// handlers. Safe to call more than once and before Start.
func (a *App) Close() {
	if a.server != nil {
		if err := a.server.Close(); err != nil {
			a.Log.Warn("telemetry server shutdown", "err", err)
		}
		a.server = nil
	}
	if a.stop != nil {
		a.stop()
		a.stop = nil
	}
}

// Fatal logs err and exits: with ExitInterrupted for a context
// cancellation (a clean signal-driven shutdown), 1 otherwise. The debug
// server is shut down first so an in-flight /metrics scrape drains.
func (a *App) Fatal(err error) {
	log := a.Log
	if log == nil {
		log = slog.Default().With("tool", a.Tool)
	}
	log.Error("fatal", "err", err)
	a.Close()
	if errors.Is(err, context.Canceled) {
		os.Exit(ExitInterrupted)
	}
	os.Exit(1)
}
