package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"twosmart/internal/trace"
)

// WriteJSON renders the status as indented JSON.
func (st *Status) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// Render writes the human-readable fleet table: one gateway block per
// gateway with its per-shard forwarding view, one row per shard with
// rates, latency, model and drift state, then the slowest traces with
// their per-hop breakdown.
func (st *Status) Render(w io.Writer) {
	// The unreachable and skipped-series counts ride the summary line: a
	// half-blind collection must announce itself up front, not only in
	// per-node rows a scanning operator can miss.
	fmt.Fprintf(w, "fleet status (rates over %gs window)", st.Window)
	if n := len(st.Errors); n > 0 {
		fmt.Fprintf(w, "  [%d node(s) UNREACHABLE]", n)
	}
	skipped := 0
	for _, g := range st.Gateways {
		skipped += g.NonFinite
	}
	for _, s := range st.Shards {
		skipped += s.NonFinite
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  [%d non-finite series skipped]", skipped)
	}
	fmt.Fprintln(w)

	for _, g := range st.Gateways {
		fmt.Fprintf(w, "\nGATEWAY %s  shards_healthy=%d  reroutes=%.0f (%.1f/s)  traces=%d",
			g.Addr, g.ShardsHealthy, g.Reroutes, g.RerouteRate, g.TraceCount)
		if g.TraceDropped > 0 {
			fmt.Fprintf(w, " (dropped %d)", g.TraceDropped)
		}
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  SHARD\tUP\tVERSION\tFWD/S\tRELAY/S\tPROBE RTT\tROUTED")
		for _, s := range g.Shards {
			up := "down"
			if s.Up {
				up = "up"
			}
			version := "-"
			if s.ModelVersion > 0 {
				version = fmt.Sprintf("v%d", s.ModelVersion)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%.1f\t%.1f\t%s\t%.0f\n",
				s.Shard, up, version, s.ForwardRate, s.RelayRate, dur(s.ProbeRTT), s.Routed)
		}
		tw.Flush()
	}

	if len(st.Shards) > 0 {
		fmt.Fprintln(w, "\nSHARDS")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  ADDR\tMODEL\tVERDICTS/S\tSHED/S\tP99\tDRIFT\tROLLOUT\tCASCADE\tTRACES")
		for _, s := range st.Shards {
			model := s.Model
			if model == "" {
				model = "-"
			} else if s.ModelVersion != "" {
				model += " v" + s.ModelVersion
			}
			traces := fmt.Sprintf("%d", s.TraceCount)
			if s.TraceDropped > 0 {
				traces += fmt.Sprintf(" (dropped %d)", s.TraceDropped)
			}
			rollout := s.Rollout
			if rollout == "" {
				rollout = "-"
			}
			fmt.Fprintf(tw, "  %s\t%s\t%.1f\t%.1f\t%s\t%s\t%s\t%s\t%s\n",
				s.Addr, model, s.VerdictRate, s.ShedRate, dur(s.P99), s.Drift, rollout, cascadeCell(s.Cascade), traces)
		}
		tw.Flush()
	}

	for _, e := range st.Errors {
		fmt.Fprintf(w, "\nUNREACHABLE %s: %s\n", e.Addr, e.Err)
	}

	if len(st.Slowest) > 0 {
		fmt.Fprintln(w, "\nSLOWEST TRACES (per-hop attribution)")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  NODE\tTIER\tAPP\tSTREAM:SEQ\tTOTAL\tGATEWAY\tQUEUE\tASSEMBLY\tSTAGE0\tSCORE\tEMIT")
		for _, t := range st.Slowest {
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%d:%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				t.Node, t.Tier, t.App, t.Stream, t.Seq,
				durNanos(t.TotalNanos),
				durNanos(t.Hops[trace.HopGateway]),
				durNanos(t.Hops[trace.HopQueue]),
				durNanos(t.Hops[trace.HopAssembly]),
				durNanos(t.Hops[trace.HopStage0]),
				durNanos(t.Hops[trace.HopScore]),
				durNanos(t.Hops[trace.HopEmit]))
		}
		tw.Flush()
	}
}

// cascadeCell renders one node's cascade column: the short-circuit
// fraction and the stage-0 cost per sample, or "-" when the node runs no
// cascade.
func cascadeCell(cs *CascadeStatus) string {
	if cs == nil {
		return "-"
	}
	return fmt.Sprintf("%.1f%% @%.0fns", cs.ShortFraction*100, cs.Stage0PerSamp)
}

// dur renders seconds compactly (µs/ms/s as appropriate).
func dur(seconds float64) string {
	if seconds == 0 {
		return "-"
	}
	return durNanos(int64(seconds * 1e9))
}

// durNanos renders a nanosecond duration rounded to a readable grain.
func durNanos(ns int64) string {
	if ns == 0 {
		return "0"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}
