// Command bench is the fixed-rate serving benchmark of the streaming
// detector: it builds smartserve and smartgw from the checkout, trains the
// served model, spawns the real daemons, drives them from this one
// process with open-loop schedules generated from -seed, checks every
// verdict against the model scored offline, and prints every end-to-end
// and per-layer metric of BENCHMARK.json by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics, or with -trace 1 the per-layer ones.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload shard-steady -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -trace 1 -spans spans.json      # all workloads, traced
//	bash bench/run.sh -smoke                          # every workload at 1/10 rate, 2 s
//	bash bench/run.sh compare base.jsonl head.jsonl   # paired comparison
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/persist"
)

// stateDir holds everything a run writes, relative to the checkout root.
const stateDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the corpus, stream phases and input offsets derive from it")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 adds a traced pass (daemon telemetry, client spans, ladder) and reports per-layer metrics")
	spansOut := fs.String("spans", "", "with -trace 1: write the client spans here (default .bench_build/spans-<workload>-<seed>.json)")
	out := fs.String("out", "", "append each workload run's result as one JSON line to this file (input of compare)")
	smoke := fs.Bool("smoke", false, "pre-flight: every selected workload at 1/10 rate for a 2 s window, one set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || (*smoke && *traceFlag == 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload NAME|all] [-seed N] [-seconds N] [-trace 0|1] [-smoke] [-out FILE] [-spans FILE]")
		return 2
	}

	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var run []spec
	if *workloadFlag == "all" {
		run = append([]spec(nil), specs...)
	} else {
		sp, err := specByName(*workloadFlag)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		run = []spec{sp}
	}
	tm := timing{setups: 11, warm: 3 * time.Second, window: time.Duration(*seconds) * time.Second, tick: 500 * time.Microsecond}
	if *smoke {
		tm = timing{setups: 1, warm: 500 * time.Millisecond, window: 2 * time.Second, tick: tm.tick}
		for i := range run {
			run[i].period *= 10
		}
	}
	// The load is one process: at most nproc connections and threads.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	// The wire client boxes every received frame in a small heap object;
	// a lazier collector keeps the load's CPU share next to the daemons
	// it drives small and steady. Its live heap is a few megabytes.
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := benchmark(ctx, stdout, run, *seed, tm, *traceFlag == 1, *spansOut)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	defs := cfg.EndToEnd
	if *traceFlag == 1 {
		defs = cfg.PerLayer
	}
	summary, err := summarize(results, defs)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		fmt.Fprintln(stderr, "bench: verdict or fate check failed (see FAIL lines above)")
		return 1
	}
	return 0
}

// benchmark builds and trains once, then runs every workload.
func benchmark(ctx context.Context, w io.Writer, run []spec, seed int64, tm timing, traced bool, spansOut string) ([]*result, error) {
	bin, err := filepath.Abs(filepath.Join(stateDir, "bin"))
	if err != nil {
		return nil, err
	}
	if err := buildDaemons(ctx, bin); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	art := artifacts{bin: bin}
	if art.model, art.env, err = trainModel(ctx, bin, dir); err != nil {
		return nil, err
	}
	m, err := loadModel(art)
	if err != nil {
		return nil, err
	}

	var spans *spanLog
	if traced {
		spans = &spanLog{}
	}
	var results []*result
	for _, sp := range run {
		res, err := runWorkload(ctx, w, sp, seed, tm, traced, art, m, spans)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		results = append(results, res)
	}
	if traced {
		path := spansOut
		if path == "" {
			name := run[0].name
			if len(run) > 1 {
				name = "all"
			}
			path = filepath.Join(stateDir, fmt.Sprintf("spans-%s-%d.json", name, seed))
		}
		if err := spans.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	}
	return results, nil
}

func loadModel(art artifacts) (model, error) {
	blob, err := os.ReadFile(art.model)
	if err != nil {
		return model{}, err
	}
	det, err := core.UnmarshalDetector(blob)
	if err != nil {
		return model{}, err
	}
	blob, err = os.ReadFile(art.env)
	if err != nil {
		return model{}, err
	}
	env, err := persist.UnmarshalEnvelope(blob)
	if err != nil {
		return model{}, err
	}
	return model{det: det, env: env}, nil
}

// loadConns is the number of agent connections: two, or one on a
// single-CPU machine, so the load never uses more connections than CPUs.
func loadConns() int { return min(2, runtime.NumCPU()) }

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the last line from the runs: one run reports its
// metrics by name; several (-workload all) prefix each name with the
// workload.
func summarize(results []*result, defs []metricDef) (summaryLine, error) {
	s := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				return s, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
			}
			name := d.Name
			if len(results) > 1 {
				name = r.Workload + "/" + d.Name
			}
			s.Metrics[name] = v
		}
	}
	return s, nil
}

func appendResults(path string, results []*result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return fmt.Errorf("appending to %s: %w", path, err)
		}
	}
	return f.Close()
}
