package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (d metricDef) higherIsBetter() bool { return d.Better == "higher" }

// benchConfig is BENCHMARK.json: the single list of workloads and metrics
// the program reports and compare judges.
type benchConfig struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// e2eUnits are the end-to-end metrics the program measures, with units.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"verdict_p50_ms": "ms",
	"verdicts_per_s": "1/s",
	"on_time_frac":   "ratio",
	"rss_mb":         "MB",
}

// ungated are whole-path metrics measured beside the end-to-end ones
// whose run-to-run spread on a shared 2-CPU host is wider than any bound
// BENCHMARK.json may set (README.md, "Why these metrics"); they are
// reported with the per-layer metrics.
var ungated = map[string]string{
	"verdict_p99_ms":     "ms",
	"cpu_us_per_verdict": "us",
}

// layerUnits are the per-layer metrics the program measures, with units.
// overhead.<name> is added for every end-to-end and ungated metric.
var layerUnits = map[string]string{
	"miss_frac":                     "ratio",
	"load.late_p99_ms":              "ms",
	"load.offered_ratio":            "ratio",
	"load.send_us_per_wake":         "us",
	"load.recv_ns_per_frame":        "ns",
	"wire.sample_encode_ns":         "ns",
	"wire.sample_decode_ns":         "ns",
	"wire.verdict_encode_ns":        "ns",
	"wire.verdict_decode_ns":        "ns",
	"session.push_ns":               "ns",
	"session.round_ns_per_sample":   "ns",
	"session.open_us":               "us",
	"core.detect_ns_per_sample":     "ns",
	"core.compile_us":               "us",
	"monitor.observe_ns_per_sample": "ns",
	"anomaly.score_ns_per_sample":   "ns",
	"anomaly.short_frac":            "ratio",
	"serve.cpu_us_per_verdict":      "us",
	"serve.batch_size_p50":          "count",
	"serve.shed_frac":               "ratio",
	"serve.latency_p99_ms":          "ms",
	"serve.protocol_errors":         "count",
	"trace.queue_us_p50":            "us",
	"trace.assembly_us_p50":         "us",
	"trace.stage0_us_p50":           "us",
	"trace.score_us_p50":            "us",
	"trace.emit_us_p50":             "us",
	"trace.gateway_us_p50":          "us",
	"cascade.short_frac":            "ratio",
	"cascade.stage0_ns_per_sample":  "ns",
	"cascade.stage1_ns_per_sample":  "ns",
	"cluster.cpu_us_per_verdict":    "us",
	"cluster.batch_size_p50":        "count",
	"cluster.shed_frac":             "ratio",
	"cluster.dropped":               "count",
	"cluster.skew":                  "ratio",
	"cluster.route_ns":              "ns",
	"fate.verdict":                  "ratio",
	"fate.shed":                     "ratio",
	"fate.lost":                     "ratio",
	"ladder.sum_ns_per_sample":      "ns",
	"ladder.serve_ns_per_verdict":   "ns",
	"ladder.reconcile_ratio":        "ratio",
}

func init() {
	for name, unit := range ungated {
		layerUnits[name] = unit
		layerUnits["overhead."+name] = unit
	}
	for name, unit := range e2eUnits {
		layerUnits["overhead."+name] = unit
	}
}

// loadConfig reads BENCHMARK.json and checks it against what the program
// measures, so the file and the program cannot drift apart silently.
func loadConfig(path string) (*benchConfig, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg benchConfig
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var problems []string
	check := func(defs []metricDef, units map[string]string) {
		for _, d := range defs {
			switch unit, ok := units[d.Name]; {
			case !ok:
				problems = append(problems, fmt.Sprintf("metric %s is not measured", d.Name))
			case unit != d.Unit:
				problems = append(problems, fmt.Sprintf("metric %s has unit %s, measured in %s", d.Name, d.Unit, unit))
			case d.Better != "higher" && d.Better != "lower":
				problems = append(problems, fmt.Sprintf("metric %s: better must be higher or lower", d.Name))
			}
		}
	}
	check(cfg.EndToEnd, e2eUnits)
	for _, d := range cfg.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			problems = append(problems, fmt.Sprintf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound))
		}
	}
	check(cfg.PerLayer, layerUnits)
	for _, w := range cfg.Workloads {
		if _, err := specByName(w.Name); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if len(cfg.Workloads) != len(specs) {
		problems = append(problems, fmt.Sprintf("%d workloads declared, %d implemented", len(cfg.Workloads), len(specs)))
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("%s: %s", path, strings.Join(problems, "; "))
	}
	return &cfg, nil
}
