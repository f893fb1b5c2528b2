package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one client-side interval of a traced run: a layer boundary the
// benchmark crossed (a send wake, a receive burst, a scrape, one ladder
// rung). Spans of one workload run share Run.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted in
// dropped instead of kept.
const maxSpans = 1 << 20

// spanLog keeps spans in memory until the benchmark writes them out. A
// nil *spanLog records nothing, so untraced runs pay nothing.
type spanLog struct {
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped uint64
}

// openSpan is a started span; end records it.
type openSpan struct {
	log *spanLog
	s   span
}

func (l *spanLog) begin(run, name string, parent uint64) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{log: l, s: span{ID: l.ids.Add(1), Parent: parent, Run: run, Name: name, Start: time.Now().UnixNano()}}
}

// id is the span's identifier, to parent children on (0 when untraced).
func (o openSpan) id() uint64 { return o.s.ID }

func (o openSpan) end() {
	if o.log == nil {
		return
	}
	o.s.End = time.Now().UnixNano()
	o.log.add(o.s)
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores every span as one JSON document.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped uint64 `json:"dropped"`
		Spans   []span `json:"spans"`
	}{l.dropped, l.spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTime is one span name's aggregate: how many spans, their summed
// duration, and the part of it no child span covers.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates the spans of one run by name. A span's self time
// is its duration minus the union of its children's intervals, clipped
// to the span.
func selfTimes(spans []span) []selfTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.count++
		a.total += time.Duration(dur)
		a.self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of kids' intervals inside parent.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			sum += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		sum += curHi - curLo
	}
	return sum
}

// spansOf returns a copy of the spans recorded for run.
func (l *spanLog) spansOf(run string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

func printSelfTimes(w io.Writer, run string, rows []selfTime) {
	fmt.Fprintf(w, "  spans of %s (self time = duration not covered by child spans):\n", run)
	fmt.Fprintf(w, "    %-22s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "    %-22s %9d %12.3f %12.3f\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
}
