package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestServerEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("requests_total").Add(7)
	reg.Histogram("work_seconds", []float64{1}).Observe(0.5)

	before := runtime.NumGoroutine()
	s, err := StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	base := "http://" + s.Addr()

	// A dedicated transport so idle keep-alive connections (and their
	// goroutines) are torn down before the leak check.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "requests_total 7") ||
		!strings.Contains(body, `work_seconds_bucket{le="1"} 1`) {
		t.Errorf("/metrics: code=%d body:\n%s", code, body)
	}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	resp.Body.Close()

	if code, body := get("/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, `"telemetry"`) || !strings.Contains(body, `"memstats"`) {
		t.Errorf("/debug/vars: code=%d body starts: %.200s", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code=%d body starts: %.200s", code, body)
	}
	if code, _ := get("/"); code != http.StatusOK {
		t.Errorf("/: code=%d", code)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code=%d, want 404", code)
	}

	// The pprof endpoints answer as net/http/pprof did: gzipped protobuf
	// profiles, a non-empty execution trace, symbols and the command line.
	for _, path := range []string{"/debug/pprof/profile?seconds=1", "/debug/pprof/heap?gc=1"} {
		if code, body := get(path); code != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
			t.Errorf("%s: code=%d, body starts %q, want gzip", path, code, body[:min(len(body), 8)])
		}
	}
	if code, body := get("/debug/pprof/trace?seconds=0.1"); code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/trace: code=%d, %d bytes", code, len(body))
	}
	pc := reflect.ValueOf(TestServerEndpoints).Pointer()
	resp, err = client.Post(base+"/debug/pprof/symbol", "text/plain", strings.NewReader(fmt.Sprintf("%#x", pc)))
	if err != nil {
		t.Fatalf("POST /debug/pprof/symbol: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf("%#x %s\n", pc, runtime.FuncForPC(pc).Name()); !strings.Contains(string(body), want) {
		t.Errorf("symbol POST: %q, want a line %q", body, want)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK || body != strings.Join(os.Args, "\x00") {
		t.Errorf("/debug/pprof/cmdline: code=%d body %q", code, body)
	}
	if code, body := get("/debug/pprof/heap?seconds=1"); code != http.StatusBadRequest {
		t.Errorf("delta heap profile: code=%d body %q, want 400", code, body)
	}

	// Limits: GET only (POST for symbol), and a bounded request head.
	req, _ := http.NewRequest(http.MethodPut, base+"/metrics", nil)
	if resp, err := client.Do(req); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /metrics: %v, %v; want 405", resp, err)
	} else {
		resp.Body.Close()
	}
	if status := rawRequest(t, s.Addr(), "GET /metrics HTTP/1.1\r\nX-Pad: "+strings.Repeat("a", maxHead)+"\r\n\r\n"); !strings.HasPrefix(status, "HTTP/1.1 431 ") {
		t.Errorf("over-bound head answered %q, want 431", status)
	}

	tr.CloseIdleConnections()
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	// The server must be down and its goroutines gone.
	if _, err := client.Get(base + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before StartServer, %d after Close", before, runtime.NumGoroutine())
}

func TestServerCloseIdempotentRegistrySwap(t *testing.T) {
	// Two servers in one process: the second must start, and its
	// /debug/vars must snapshot its own registry.
	reg1 := New()
	s1, err := StartServer("127.0.0.1:0", reg1)
	if err != nil {
		t.Fatalf("StartServer 1: %v", err)
	}
	defer s1.Close()
	reg2 := New()
	reg2.Counter("second_total").Inc()
	s2, err := StartServer("127.0.0.1:0", reg2)
	if err != nil {
		t.Fatalf("StartServer 2: %v", err)
	}
	defer s2.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", s2.Addr()))
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "second_total") {
		t.Errorf("/debug/vars snapshot not following latest registry: %.300s", body)
	}
}

// rawRequest writes raw to the server at addr and returns the status line
// of its answer.
func rawRequest(t *testing.T, addr, raw string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatalf("writing request: %v", err)
	}
	status, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatalf("reading status line: %v", err)
	}
	return strings.TrimSpace(status)
}

// TestServerCloseEndsProfile pins Close's bound: a CPU profile asked for
// 30 s is cut off once the 5 s grace runs out, Close reports it, and no
// goroutine outlives the server.
func TestServerCloseEndsProfile(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := StartServer("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := client.Get("http://" + s.Addr() + "/debug/pprof/profile?seconds=30"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		s.mu.Lock()
		inFlight := len(s.conns)
		s.mu.Unlock()
		if inFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("profile request never arrived")
		}
	}

	start := time.Now()
	if err := s.Close(); err == nil {
		t.Error("Close cut off a 30 s profile but reported no error")
	}
	if took := time.Since(start); took > closeGrace+time.Second {
		t.Errorf("Close took %v, want about the %v grace", took, closeGrace)
	}
	<-done
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before StartServer, %d after Close", before, runtime.NumGoroutine())
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadRequest drives one connection's exchange with arbitrary input:
// it must never panic, never read past the head and body bounds, and
// answer every input that sent a byte with a well-formed response.
func FuzzReadRequest(f *testing.F) {
	s := &Server{routes: map[string]Handler{
		"/": func(w *Response, r *Request) {
			fmt.Fprintf(w, "%s %s %v %d", r.Method, r.Path, r.Query, len(r.Body))
		},
		symbolPath: pprofSymbol,
	}}
	f.Fuzz(func(t *testing.T, in []byte) {
		if req, err := readRequest(bytes.NewReader(in)); err == nil && (len(req.Body) > maxBody || !strings.HasPrefix(req.Path, "/")) {
			t.Fatalf("accepted %d-byte body for path %q", len(req.Body), req.Path)
		}
		src := &countingReader{r: bytes.NewReader(in)}
		var out bytes.Buffer
		s.exchange(src, &out)
		if src.n > maxHead+maxBody {
			t.Fatalf("read %d bytes, bound is %d", src.n, maxHead+maxBody)
		}
		if out.Len() == 0 {
			if len(in) > 0 {
				t.Fatalf("no response to %d bytes of input", len(in))
			}
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(&out), nil)
		if err != nil {
			t.Fatalf("malformed response %q: %v", out.String(), err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case 200, 400, 404, 413, 431, 501:
		case 405:
			if resp.Header.Get("Allow") == "" {
				t.Fatal("405 without an Allow header")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	})
}
