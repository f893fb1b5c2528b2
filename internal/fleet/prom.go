// Package fleet implements the observability-plane client side: it
// scrapes the Prometheus text exposition and /debug/traces JSON that
// smartserve and smartgw publish, computes rate deltas over a sampling
// window, and merges everything into one fleet status (per-shard verdict
// rates, p99 latency, shed rates, model versions, drift state, reroute
// counts, and the slowest end-to-end traces with per-hop attribution).
// smartctl status is a thin CLI shell over this package.
package fleet

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition series: a base metric name, its label
// set (nil when unlabeled) and the sampled value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the named label's value ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// Metrics is one parsed /metrics scrape.
type Metrics struct {
	// Types maps base metric names to their TYPE comment kind
	// (counter, gauge, histogram).
	Types map[string]string
	// Samples holds every series in exposition order.
	Samples []Sample
	// NonFinite counts series lines dropped because their value was NaN
	// or ±Inf. One poisoned gauge (a division by a zero window, an
	// uninitialised quantile) must not reject the whole node's scrape —
	// the rest of the exposition is still good evidence — but silently
	// keeping the value would poison every aggregate it touches.
	NonFinite int
}

// ParseMetrics parses a Prometheus text exposition (version 0.0.4). It
// understands everything internal/telemetry emits: TYPE comments,
// escaped label values, and cumulative histogram _bucket/_sum/_count
// series. Unknown comment lines are skipped; a malformed series line is
// an error; a series with a NaN or ±Inf value is skipped and counted in
// NonFinite (note: ±Inf as a value — the le="+Inf" bucket *label* is
// untouched).
func ParseMetrics(r io.Reader) (*Metrics, error) {
	m := &Metrics{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "TYPE" {
				m.Types[f[2]] = f[3]
			}
			continue
		}
		s, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w in series %q", err, line)
		}
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			m.NonFinite++
			continue
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: reading exposition: %w", err)
	}
	return m, nil
}

// parseSeries parses one `name{k="v",...} value [timestamp]` line. The
// timestamp, which internal/telemetry never emits, is ignored.
func parseSeries(line string) (Sample, error) {
	var s Sample
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("missing value")
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, n, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[n:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("missing value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` label body starting at s[0] == '{'
// and returns the label map plus the number of bytes consumed. Escaped
// label values (\\, \", \n) are unescaped — the inverse of
// telemetry.Label.
func parseLabels(s string) (map[string]string, int, error) {
	labels := map[string]string{}
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return nil, 0, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return labels, i + 1, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, 0, fmt.Errorf("label missing '='")
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("label %s missing quoted value", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, 0, fmt.Errorf("unterminated value for label %s", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(c)
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// matches reports whether the sample carries every given key=value pair
// (pairs is k1, v1, k2, v2, ...).
func matches(s Sample, pairs []string) bool {
	for i := 0; i+1 < len(pairs); i += 2 {
		if s.Labels[pairs[i]] != pairs[i+1] {
			return false
		}
	}
	return true
}

// Get returns the value of the series with the given base name whose
// labels include every k, v pair, and whether one was found.
func (m *Metrics) Get(name string, pairs ...string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	for _, s := range m.Samples {
		if s.Name == name && matches(s, pairs) {
			return s.Value, true
		}
	}
	return 0, false
}

// Family returns every series with the given base name.
func (m *Metrics) Family(name string) []Sample {
	if m == nil {
		return nil
	}
	var out []Sample
	for _, s := range m.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// ActiveModel returns the serve_model_info series at 1: the model
// generation a shard is serving. ok is false when the node reports none.
func (m *Metrics) ActiveModel() (info Sample, ok bool) {
	for _, s := range m.Family("serve_model_info") {
		if s.Value == 1 {
			return s, true
		}
	}
	return Sample{}, false
}

// bucket is one cumulative histogram bucket.
type bucket struct {
	le  float64 // upper bound, +Inf for the overflow bucket
	cum float64 // cumulative count at or below le
}

// buckets collects and sorts the _bucket series of histogram name whose
// labels (beyond le) include the given pairs.
func (m *Metrics) buckets(name string, pairs []string) []bucket {
	var bs []bucket
	for _, s := range m.Family(name + "_bucket") {
		if !matches(s, pairs) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le: le, cum: s.Value})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}

// Quantile estimates the q-quantile (0 < q <= 1) of histogram name from
// its cumulative buckets, interpolating linearly inside the owning
// bucket (the histogram_quantile estimator). Returns 0 when the
// histogram is absent or empty. For ranks landing in the +Inf bucket it
// returns the highest finite bound — the estimate is clamped, not
// invented.
func (m *Metrics) Quantile(name string, q float64, pairs ...string) float64 {
	return quantile(m.buckets(name, pairs), q)
}

// DeltaQuantile estimates the q-quantile of the observations histogram
// name accumulated between the before and after scrapes, by differencing
// the cumulative buckets. Returns 0 when nothing was observed in the
// window.
func DeltaQuantile(before, after *Metrics, name string, q float64, pairs ...string) float64 {
	b0 := before.buckets(name, pairs)
	b1 := after.buckets(name, pairs)
	if len(b0) != len(b1) {
		return quantile(b1, q)
	}
	d := make([]bucket, len(b1))
	for i := range b1 {
		d[i] = bucket{le: b1[i].le, cum: b1[i].cum - b0[i].cum}
	}
	return quantile(d, q)
}

func quantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 {
		return 0
	}
	total := bs[len(bs)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	var prevBound, prevCum float64
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return prevBound // clamp: the overflow bucket has no upper edge
			}
			in := b.cum - prevCum
			if in <= 0 {
				return b.le
			}
			return prevBound + (b.le-prevBound)*(rank-prevCum)/in
		}
		if !math.IsInf(b.le, 1) {
			prevBound = b.le
		}
		prevCum = b.cum
	}
	return prevBound
}

// Delta returns the counter increase of name between two scrapes,
// clamped at zero (a restarted process resets its counters; a negative
// rate would be noise, not signal).
func Delta(before, after *Metrics, name string, pairs ...string) float64 {
	b, _ := before.Get(name, pairs...)
	a, _ := after.Get(name, pairs...)
	if a < b {
		return 0
	}
	return a - b
}
