package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanOverflowDropAccounting pins the span-log bound: spans past
// maxSpans are dropped, counted, and reported in the run report while
// the per-name histogram still observes every completion.
func TestSpanOverflowDropAccounting(t *testing.T) {
	r := New()
	const extra = 7
	for i := 0; i < maxSpans+extra; i++ {
		r.StartSpan("stage").End()
	}
	if got := len(r.Spans()); got != maxSpans {
		t.Fatalf("kept %d spans, want the maxSpans bound %d", got, maxSpans)
	}
	rep := r.Report("test")
	if rep.SpansDropped != extra {
		t.Fatalf("SpansDropped = %d, want %d", rep.SpansDropped, extra)
	}
	if len(rep.Spans) != maxSpans {
		t.Fatalf("report carries %d spans, want %d", len(rep.Spans), maxSpans)
	}
	// The histogram is not subject to the span-log bound.
	h := rep.Histograms["span_stage_seconds"]
	if h.Count != maxSpans+extra {
		t.Fatalf("span histogram count = %d, want %d", h.Count, maxSpans+extra)
	}
}

// TestLabelEscapingThroughPrometheus drives label values containing
// quotes, backslashes and newlines through Label and the text
// exposition, asserting the escaped spellings Prometheus requires.
func TestLabelEscapingThroughPrometheus(t *testing.T) {
	cases := []struct {
		value   string
		escaped string
	}{
		{`plain`, `plain`},
		{`has"quote`, `has\"quote`},
		{`back\slash`, `back\\slash`},
		{"new\nline", `new\nline`},
		{"all\"three\\and\nmore", `all\"three\\and\nmore`},
	}
	r := New()
	for i, tc := range cases {
		name := Label("escape_total", "v", tc.value)
		want := fmt.Sprintf(`escape_total{v="%s"}`, tc.escaped)
		if name != want {
			t.Errorf("case %d: Label = %s, want %s", i, name, want)
		}
		r.Counter(name).Add(uint64(i + 1))
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != len(cases)+1 { // one TYPE line + one series per case
		t.Fatalf("exposition has unexpected shape:\n%s", out)
	}
	for i, tc := range cases {
		line := fmt.Sprintf(`escape_total{v="%s"} %d`, tc.escaped, i+1)
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	// A raw newline inside a series line would corrupt the whole format.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if line == "" {
			t.Fatalf("exposition contains an empty line (unescaped newline leaked):\n%s", out)
		}
	}
}

// TestExemplarCapture pins the slowest-K semantics: the set keeps the
// largest values in descending order and caps at maxExemplars.
func TestExemplarCapture(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	for i := 1; i <= 20; i++ {
		v := float64(i) / 1000
		h.Observe(v)
		h.Exemplar(v, uint64(i))
	}
	s := h.Summary()
	if len(s.Exemplars) != maxExemplars {
		t.Fatalf("kept %d exemplars, want %d", len(s.Exemplars), maxExemplars)
	}
	for i, ex := range s.Exemplars {
		wantID := uint64(20 - i)
		if ex.TraceID != wantID {
			t.Fatalf("exemplar[%d] = %+v, want trace %d (descending slowest-K)", i, ex, wantID)
		}
		if i > 0 && ex.Value > s.Exemplars[i-1].Value {
			t.Fatalf("exemplars not sorted descending: %+v", s.Exemplars)
		}
	}
	// A value below the floor of a full set is rejected.
	h.Exemplar(0.0001, 999)
	for _, ex := range h.Summary().Exemplars {
		if ex.TraceID == 999 {
			t.Fatal("below-floor exemplar displaced a slower one")
		}
	}
}

// TestExemplarConcurrent hammers Exemplar/Observe/Summary from many
// goroutines; run under -race this pins the capture path's safety.
func TestExemplarConcurrent(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := float64(g*1000+i) / 1e6
				h.Observe(v)
				h.Exemplar(v, uint64(g*1000+i+1))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := h.Summary()
			if len(s.Exemplars) > maxExemplars {
				t.Errorf("summary holds %d exemplars, cap is %d", len(s.Exemplars), maxExemplars)
				return
			}
		}
	}()
	wg.Wait()
	s := h.Summary()
	if len(s.Exemplars) != maxExemplars {
		t.Fatalf("kept %d exemplars, want %d", len(s.Exemplars), maxExemplars)
	}
	// The global slowest value must have survived every interleaving.
	if want := float64(7999) / 1e6; s.Exemplars[0].Value != want {
		t.Fatalf("slowest exemplar = %v, want %v", s.Exemplars[0].Value, want)
	}
}

// TestServerHealthz pins the drain-aware readiness endpoint and the
// post-start Handle hook.
func TestServerHealthz(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/debug/extra", func(w *Response, _ *Request) {
		io.WriteString(w, "extra")
	})

	get := func(path string) (int, string) {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("ready /healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := get("/debug/extra"); code != http.StatusOK || body != "extra" {
		t.Fatalf("/debug/extra = %d %q, want the mounted handler", code, body)
	}
	// A handler that panics ends its own request, not the server.
	srv.Handle("/debug/panic", func(*Response, *Request) { panic("boom") })
	if code, _ := get("/debug/panic"); code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", code)
	}
	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/debug/extra") {
		t.Fatalf("/ = %d %q, want an index naming the mounted path", code, body)
	}
	want := "/debug/extra /debug/panic /debug/pprof/ /debug/vars /healthz /metrics"
	if got := strings.Join(srv.Paths(), " "); got != want {
		t.Fatalf("Paths() = %q, want %q", got, want)
	}
	srv.SetDraining()
	if !srv.Draining() {
		t.Fatal("Draining() false after SetDraining")
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", code)
	}
	// Metrics stay up during the drain: the draining process is still
	// observable.
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("draining /metrics = %d, want 200", code)
	}
}
