package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// headTimeout bounds how long a connection may take to send its head.
	headTimeout = 10 * time.Second
	// closeGrace bounds how long Close waits for requests in flight.
	closeGrace = 5 * time.Second

	pprofPrefix = "/debug/pprof/"
	symbolPath  = pprofPrefix + "symbol"
)

// Server is the opt-in debug HTTP endpoint behind -telemetry-addr. It
// serves:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       drain-aware readiness (200 until SetDraining, then 503)
//	/debug/vars    JSON: cmdline, Go runtime memstats and a "telemetry" snapshot
//	/debug/pprof/  the runtime/pprof profiles, CPU profile, trace, symbol, cmdline
//
// Tools can mount extra endpoints (e.g. /debug/traces) with Handle. Each
// connection carries one request (GET, or POST for symbol) and is closed
// after the response. Close shuts it down gracefully and leaks no
// goroutines.
type Server struct {
	ln       net.Listener
	reg      *Registry
	draining atomic.Bool
	stop     chan struct{} // closed when Close stops waiting for requests in flight

	mu      sync.Mutex // guards routes, conns and closing
	routes  map[string]Handler
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup // the accept loop and every connection
}

// StartServer listens on addr (":0" picks a free port; see Addr) and
// serves the debug endpoints for reg in a background goroutine.
func StartServer(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:    ln,
		reg:   reg,
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.routes = map[string]Handler{
		"/":                     s.index,
		"/metrics":              s.metrics,
		"/healthz":              s.healthz,
		"/debug/vars":           s.vars,
		pprofPrefix:             pprofIndex,
		pprofPrefix + "cmdline": pprofCmdline,
		pprofPrefix + "profile": pprofProfile,
		symbolPath:              pprofSymbol,
		pprofPrefix + "trace":   pprofTrace,
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle mounts h at exactly path (e.g. /debug/traces). Safe to call
// after the server started serving; panics on a path already served.
func (s *Server) Handle(path string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.routes[path]; dup {
		panic("telemetry: duplicate handler for " + path)
	}
	s.routes[path] = h
}

// SetDraining flips /healthz to 503 so external orchestration stops
// routing to this process while its graceful drain runs. The metrics and
// debug endpoints keep serving — a draining process is still observable.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Draining reports whether SetDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops accepting, waits up to 5 s for requests in flight, then
// ends the rest (a running CPU profile or trace stops early) and closes
// their connections. It returns once every connection's goroutine has
// exited, with an error when requests had to be cut off.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	s.mu.Unlock()
	s.ln.Close()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	grace := time.NewTimer(closeGrace)
	defer grace.Stop()
	select {
	case <-idle:
		return nil
	case <-grace.C:
	}
	close(s.stop)
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-idle
	return fmt.Errorf("telemetry: requests still in flight after %s were cut off", closeGrace)
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(50 * time.Millisecond) // e.g. out of file descriptors
			continue
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// serveConn answers the connection's one request and closes it.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	c.SetReadDeadline(time.Now().Add(headTimeout))
	if !s.exchange(c, c) {
		return
	}
	// A refused request may leave unread bytes, and closing over them
	// resets the connection, which can discard the answer before the
	// client reads it. Half-close, and let the client hang up first.
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, io.LimitReader(c, maxHead+maxBody))
	}
}

// exchange reads one request from r and writes its response to w. A
// connection that ends before its first byte is closed unanswered. It
// reports whether the request was refused with an error status.
func (s *Server) exchange(r io.Reader, w io.Writer) (refused bool) {
	resp := newResponse(w)
	req, err := readRequest(r)
	var ref *refusal
	switch {
	case err == nil:
		req.done = s.stop
		s.dispatch(resp, req)
	case errors.As(err, &ref):
		resp.Error(ref.code, ref.msg)
		refused = true
	default:
		return false
	}
	resp.finish()
	return refused
}

// dispatch routes req to its handler. A handler that panics ends its own
// request, not the process.
func (s *Server) dispatch(w *Response, req *Request) {
	h := s.route(req.Path)
	if h == nil {
		w.Error(404, "404 page not found")
		return
	}
	if req.Method != "GET" && (req.Method != "POST" || req.Path != symbolPath) {
		w.allow = "GET"
		if req.Path == symbolPath {
			w.allow = "GET, POST"
		}
		w.Error(405, "method not allowed")
		return
	}
	defer func() {
		if p := recover(); p != nil {
			slog.Error("telemetry handler panicked", "path", req.Path, "panic", p, "stack", string(debug.Stack()))
			if !w.sent {
				w.Error(500, "internal error")
			}
		}
	}()
	h(w, req)
}

// route returns the handler for path: an exact match, else the pprof
// index for any other name under /debug/pprof/.
func (s *Server) route(path string) Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.routes[path]; ok {
		return h
	}
	if strings.HasPrefix(path, pprofPrefix) {
		return s.routes[pprofPrefix]
	}
	return nil
}

// Paths lists the endpoints the server answers, sorted: every mounted
// path but "/" and the names below /debug/pprof/.
func (s *Server) Paths() []string {
	s.mu.Lock()
	var paths []string
	for p := range s.routes {
		if p != "/" && (p == pprofPrefix || !strings.HasPrefix(p, pprofPrefix)) {
			paths = append(paths, p)
		}
	}
	s.mu.Unlock()
	sort.Strings(paths)
	return paths
}

func (s *Server) index(w *Response, _ *Request) {
	fmt.Fprintf(w, "twosmart telemetry\n\n%s\n", strings.Join(s.Paths(), "\n"))
}

func (s *Server) metrics(w *Response, _ *Request) {
	w.SetContentType("text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) healthz(w *Response, _ *Request) {
	if s.draining.Load() {
		w.Error(503, "draining")
		return
	}
	io.WriteString(w, "ok\n")
}

// vars serves what expvar's handler did: the command line, the runtime's
// memstats and this server's registry as a run report.
func (s *Server) vars(w *Response, _ *Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.SetContentType("application/json; charset=utf-8")
	json.NewEncoder(w).Encode(struct {
		Cmdline   []string          `json:"cmdline"`
		Memstats  *runtime.MemStats `json:"memstats"`
		Telemetry *RunReport        `json:"telemetry"`
	}{os.Args, &ms, s.reg.Report("expvar")})
}

// pprofIndex lists the profiles at /debug/pprof/ and serves each named
// one below it: ?debug=N for text, gc=1 to collect before a heap profile.
func pprofIndex(w *Response, r *Request) {
	if name := strings.TrimPrefix(r.Path, pprofPrefix); name != "" {
		pprofNamed(w, r, name)
		return
	}
	io.WriteString(w, "/debug/pprof/ profiles (count, then path; ?debug=1 for text)\n\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(w, "%-12s %6d  %s%s\n", p.Name(), p.Count(), pprofPrefix, p.Name())
	}
	for _, p := range []string{"profile?seconds=30", "trace?seconds=1", "cmdline", "symbol"} {
		name, _, _ := strings.Cut(p, "?")
		fmt.Fprintf(w, "%-12s %6s  %s%s\n", name, "-", pprofPrefix, p)
	}
}

func pprofNamed(w *Response, r *Request, name string) {
	p := pprof.Lookup(name)
	if p == nil {
		w.Error(404, "unknown profile")
		return
	}
	if r.Query.Get("seconds") != "" {
		w.Error(400, "delta profiles (seconds=N) are not supported; omit seconds for the cumulative profile")
		return
	}
	if gc, _ := strconv.Atoi(r.Query.Get("gc")); name == "heap" && gc > 0 {
		runtime.GC()
	}
	level, _ := strconv.Atoi(r.Query.Get("debug"))
	if level == 0 {
		w.SetContentType("application/octet-stream")
	}
	p.WriteTo(w, level)
}

// pprofProfile serves a CPU profile of ?seconds=N (default 30).
func pprofProfile(w *Response, r *Request) {
	pprofTimed(w, r, 30, pprof.StartCPUProfile, pprof.StopCPUProfile)
}

// pprofTrace serves an execution trace of ?seconds=N (default 1).
func pprofTrace(w *Response, r *Request) { pprofTimed(w, r, 1, trace.Start, trace.Stop) }

// pprofTimed streams what start records to w for ?seconds=N (default
// def), cut short when the server closes.
func pprofTimed(w *Response, r *Request, def float64, start func(io.Writer) error, stop func()) {
	sec, err := strconv.ParseFloat(r.Query.Get("seconds"), 64)
	if sec <= 0 || err != nil {
		sec = def
	}
	w.SetContentType("application/octet-stream")
	if err := start(w); err != nil {
		w.Error(500, "could not start recording: "+err.Error())
		return
	}
	r.sleep(time.Duration(sec * float64(time.Second)))
	stop()
}

// pprofSymbol maps the '+'-separated program counters in a POST body or
// a GET query to function names, as go tool pprof expects.
func pprofSymbol(w *Response, r *Request) {
	in := string(r.Body)
	if r.Method == "GET" {
		in = r.rawQuery
	}
	io.WriteString(w, "num_symbols: 1\n")
	for _, word := range strings.Split(in, "+") {
		pc, _ := strconv.ParseUint(word, 0, 64)
		if pc == 0 {
			continue
		}
		if f := runtime.FuncForPC(uintptr(pc)); f != nil {
			fmt.Fprintf(w, "%#x %s\n", pc, f.Name())
		}
	}
}

func pprofCmdline(w *Response, _ *Request) {
	io.WriteString(w, strings.Join(os.Args, "\x00"))
}
