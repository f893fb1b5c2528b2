package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"twosmart/internal/fleet"
	"twosmart/internal/trace"
)

var httpClient = &http.Client{Timeout: 5 * time.Second}

func get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp, nil
}

func scrapeMetrics(ctx context.Context, addr string) (*fleet.Metrics, error) {
	resp, err := get(ctx, "http://"+addr+"/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return fleet.ParseMetrics(resp.Body)
}

func scrapeTraces(ctx context.Context, addr string) (trace.Dump, error) {
	var d trace.Dump
	resp, err := get(ctx, "http://"+addr+"/debug/traces")
	if err != nil {
		return d, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return d, fmt.Errorf("decoding traces from %s: %w", addr, err)
	}
	return d, nil
}

// snapshot is one reading of every serving process at a slice edge.
type snapshot struct {
	stats   []procStat       // per servers.procs() entry
	metrics []*fleet.Metrics // scraped snapshots only, same order
}

func takeSnapshot(ctx context.Context, sv *servers, scrape bool) (snapshot, error) {
	var s snapshot
	for _, p := range sv.procs() {
		st, err := readProcStat(p.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.stats = append(s.stats, st)
		if scrape {
			m, err := scrapeMetrics(ctx, p.telemetry)
			if err != nil {
				return s, err
			}
			s.metrics = append(s.metrics, m)
		}
	}
	return s, nil
}

// windowDelta is the growth of every serving process's counters over the
// measured window.
type windowDelta struct {
	before, after snapshot
}

func (w windowDelta) cpu(i int) time.Duration { return w.after.stats[i].cpu - w.before.stats[i].cpu }

func (w windowDelta) counter(i int, name string, pairs ...string) float64 {
	return fleet.Delta(w.before.metrics[i], w.after.metrics[i], name, pairs...)
}

// quantile estimates the q-quantile of histogram name over the window,
// pooled across the processes in idx: the windowed bucket deltas are
// summed and handed to the fleet estimator.
func (w windowDelta) quantile(idx []int, name string, q float64) float64 {
	sums := map[string]float64{}
	for _, i := range idx {
		before := map[string]float64{}
		for _, s := range w.before.metrics[i].Family(name + "_bucket") {
			before[s.Label("le")] = s.Value
		}
		for _, s := range w.after.metrics[i].Family(name + "_bucket") {
			sums[s.Label("le")] += s.Value - before[s.Label("le")]
		}
	}
	pooled := &fleet.Metrics{}
	for le, v := range sums {
		pooled.Samples = append(pooled.Samples, fleet.Sample{
			Name: name + "_bucket", Labels: map[string]string{"le": le}, Value: v,
		})
	}
	return pooled.Quantile(name, q)
}

// hopMedians returns the median of each trace hop (microseconds) over
// the shard-tier records that started inside the window.
func hopMedians(dumps []trace.Dump, from, to time.Time) (med [trace.NumHops]float64) {
	var hops [trace.NumHops][]float64
	for _, d := range dumps {
		for _, r := range d.Records {
			if r.Tier != trace.TierShard || r.StartNanos < from.UnixNano() || r.StartNanos >= to.UnixNano() {
				continue
			}
			for h, v := range r.Hops {
				hops[h] = append(hops[h], float64(v)/1e3)
			}
		}
	}
	for h := range hops {
		med[h] = median(hops[h])
	}
	return med
}

// skew is max/mean of the per-shard relayed verdict counts.
func skew(perShard map[string]float64) float64 {
	var sum, top float64
	for _, v := range perShard {
		sum += v
		top = max(top, v)
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(perShard)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// relayedPerShard reads the gateway's per-shard relayed verdict deltas.
func (w windowDelta) relayedPerShard(gw int) map[string]float64 {
	out := map[string]float64{}
	for _, s := range w.after.metrics[gw].Family("cluster_verdicts_relayed_total") {
		shard := s.Label("shard")
		out[shard] = w.counter(gw, "cluster_verdicts_relayed_total", "shard", shard)
	}
	return out
}
