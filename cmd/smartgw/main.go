// Command smartgw is the sharded gateway tier: it accepts agent
// connections speaking the same internal/wire protocol as smartserve and
// routes each (agent, app) stream to one of N backend smartserve shards
// by consistent hash. Agents point at the gateway exactly as they would
// at a single server; the fleet behind it can grow, shrink or lose a
// shard without any agent reconfiguration.
//
// The gateway health-checks every shard each -check-interval with a
// Heartbeat round-trip and reroutes streams when the healthy set changes:
// a stream leaving a shard is drained there (closed upstream, its summary
// suppressed) and re-opened on the shard the rebuilt hash ring picks.
// Shard deaths noticed on the data path reroute immediately, without
// waiting for the next probe. Fleet telemetry lands in the cluster_*
// metric families and, with -report, in the machine-readable run report.
//
// The gateway forwards every sample; the stage-0 cascade and the durable
// sample log run on the shards (smartserve -envelope or a registry
// entry's envelope, and smartserve -samplelog).
//
// On SIGINT/SIGTERM the gateway drains gracefully — stops accepting,
// forwards everything already queued — and exits 130.
//
// Usage:
//
//	smartserve -model det.json -shard -addr 127.0.0.1:7644 &
//	smartserve -model det.json -shard -addr 127.0.0.1:7645 &
//	smartgw -addr 127.0.0.1:7643 -shards 127.0.0.1:7644,127.0.0.1:7645
//	smartload -addr 127.0.0.1:7643
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"twosmart/internal/cli"
	"twosmart/internal/cluster"
	"twosmart/internal/trace"
)

var app = cli.New("smartgw")

func main() {
	addr := flag.String("addr", "127.0.0.1:7643", "TCP listen address for agent connections (use :0 for a random port; the bound address is printed on stdout)")
	shards := flag.String("shards", "", "comma-separated backend smartserve shard addresses (required)")
	replicas := flag.Int("replicas", cluster.DefaultReplicas, "virtual nodes per shard on the consistent-hash ring")
	checkInterval := flag.Duration("check-interval", 2*time.Second, "shard health-probe period")
	dialTimeout := flag.Duration("dial-timeout", 3*time.Second, "upstream dial + handshake / probe round-trip budget")
	queueDepth := flag.Int("queue-depth", 4096, "per-connection ingress queue depth; beyond it the oldest samples are shed")
	reportOut := flag.String("report", "", "write the machine-readable run report (JSON, includes the cluster_* counters) to this file (- for stdout)")
	traceSample := flag.Int("trace-sample", 1024, "capture one gateway-tier trace per this many forwarded samples (0 = tracing off; served at /debug/traces with -telemetry-addr)")
	traceDepth := flag.Int("trace-depth", 256, "trace ring capacity")
	flag.Parse()
	tracer := trace.New(trace.Config{SampleEvery: *traceSample, Depth: *traceDepth})
	app.DebugHandle("/debug/traces", tracer.Handler())
	ctx := app.Start()
	defer app.Close()

	if *shards == "" {
		app.Fatal(fmt.Errorf("-shards is required (comma-separated smartserve addresses)"))
	}
	fleet := strings.Split(*shards, ",")
	for i := range fleet {
		fleet[i] = strings.TrimSpace(fleet[i])
	}

	gw, err := cluster.New(cluster.Config{
		Shards:        fleet,
		Replicas:      *replicas,
		CheckInterval: *checkInterval,
		DialTimeout:   *dialTimeout,
		QueueDepth:    *queueDepth,
		Telemetry:     app.Telemetry,
		Tracer:        tracer,
		Log:           app.Log,
	})
	if err != nil {
		app.Fatal(err)
	}

	bound, err := gw.Listen(*addr)
	if err != nil {
		app.Fatal(err)
	}
	// The bound address goes to stdout so scripts using -addr :0 can
	// capture it (logs go to stderr).
	fmt.Printf("listening %s\n", bound)
	app.Log.Info("gateway up", "addr", bound.String(), "shards", len(fleet), "replicas", *replicas)

	serveErr := gw.Serve(ctx)
	if *reportOut != "" {
		if err := app.Telemetry.Report(app.Tool).WriteFile(*reportOut); err != nil {
			app.Log.Error("write run report", "path", *reportOut, "err", err)
		} else if *reportOut != "-" {
			app.Log.Info("wrote run report", "path", *reportOut)
		}
	}
	if serveErr != nil {
		app.Fatal(serveErr)
	}
	if ctx.Err() != nil {
		app.Log.Info("drained cleanly after signal")
		app.Close()
		os.Exit(cli.ExitInterrupted)
	}
}
