package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/dataset"
	"twosmart/internal/monitor"
	"twosmart/internal/samplelog"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

var (
	fixOnce sync.Once
	fixDet  *core.Detector
	fixData *dataset.Dataset
	fixErr  error
)

// fixtures trains one tiny Common-4 detector for the whole package and
// keeps the corpus it was trained on as a sample source.
func fixtures(t *testing.T) (*core.Detector, *dataset.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		data, err := corpus.Collect(corpus.Config{
			Scale:       0.001,
			MinPerClass: 24,
			Budget:      30000,
			Seed:        7,
			Omniscient:  true,
		})
		if err != nil {
			fixErr = err
			return
		}
		fixData, err = data.SelectByName(core.CommonFeatures)
		if err != nil {
			fixErr = err
			return
		}
		fixDet, fixErr = core.Train(fixData, core.TrainConfig{Seed: 5})
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixDet, fixData
}

type testServer struct {
	addr   string
	srv    *Server
	cancel context.CancelFunc
	done   chan error

	waitOnce sync.Once
	waitErr  error
	timedOut bool
}

// stop drains the server and asserts Serve returned nil; it is safe to
// call more than once (tests that drain explicitly race with the cleanup).
func (ts *testServer) stop(t *testing.T) {
	t.Helper()
	ts.cancel()
	ts.waitOnce.Do(func() {
		select {
		case ts.waitErr = <-ts.done:
		case <-time.After(10 * time.Second):
			ts.timedOut = true
		}
	})
	if ts.timedOut {
		t.Error("server did not drain within 10s")
	} else if ts.waitErr != nil {
		t.Errorf("Serve: %v", ts.waitErr)
	}
}

// start boots a server on a loopback port and registers a cleanup that
// drains it and asserts Serve returned nil.
func start(t *testing.T, cfg Config, tweak func(*Server)) *testServer {
	t.Helper()
	if cfg.Detector == nil {
		det, _ := fixtures(t)
		cfg.Detector = det
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testServer{addr: addr.String(), srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { ts.done <- srv.Serve(ctx) }()
	t.Cleanup(func() { ts.stop(t) })
	return ts
}

func dial(t *testing.T, ts *testServer) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ts.addr, "test-agent")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// samplesFrom returns n feature vectors cycling through the corpus.
func samplesFrom(d *dataset.Dataset, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = d.Instances[i%d.Len()].Features
	}
	return out
}

// TestServeVerdictRoundTrip drives one stream end to end and checks every
// verdict bit against an independently computed reference: same compiled
// detector, same monitor smoothing, fed the same sample order.
func TestServeVerdictRoundTrip(t *testing.T) {
	det, data := fixtures(t)
	reg := telemetry.New()
	ts := start(t, Config{Telemetry: reg, Model: "tiny"}, nil)
	c := dial(t, ts)

	if c.Welcome().Model != "tiny" {
		t.Fatalf("welcome model %q, want tiny", c.Welcome().Model)
	}
	if int(c.Welcome().NumFeatures) != len(core.CommonFeatures) {
		t.Fatalf("welcome features %d, want %d", c.Welcome().NumFeatures, len(core.CommonFeatures))
	}

	// Heartbeat first so its echo is the first frame back.
	if err := c.Heartbeat(42); err != nil {
		t.Fatal(err)
	}
	const n = 96
	samples := samplesFrom(data, n)
	if err := c.OpenStream(7, "app-a"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		if err := c.Send(7, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(7); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reference: one fused scoring pass plus one monitor pass, exactly what
	// the server does per stream regardless of micro-batch boundaries.
	cd := det.Compile()
	wantVerdicts := make([]core.Verdict, n)
	wantScores := make([]float64, n)
	if err := cd.DetectScoredBatch(wantVerdicts, wantScores, samples); err != nil {
		t.Fatal(err)
	}
	mon, err := monitor.New(det.Compile(), monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := make([]monitor.Event, n)
	if err := mon.ObserveScoredBatch(wantEvents, wantScores); err != nil {
		t.Fatal(err)
	}

	f, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if hb, ok := f.(wire.Heartbeat); !ok || hb.Nanos != 42 {
		t.Fatalf("first frame %#v, want Heartbeat{42}", f)
	}
	var got []wire.Verdict
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := f.(wire.Verdict); ok {
			got = append(got, v)
			continue
		}
		sum, ok := f.(wire.StreamSummary)
		if !ok {
			t.Fatalf("unexpected frame %#v", f)
		}
		if sum.Stream != 7 || sum.Samples != n || sum.Shed != 0 {
			t.Fatalf("summary %+v, want stream 7, %d samples, 0 shed", sum, n)
		}
		break
	}
	if len(got) != n {
		t.Fatalf("received %d verdicts, want %d", len(got), n)
	}
	sawMalware := false
	for i, v := range got {
		if v.Stream != 7 || v.Seq != uint32(i) {
			t.Fatalf("verdict %d: stream/seq %d/%d", i, v.Stream, v.Seq)
		}
		var wantFlags uint8
		if wantVerdicts[i].Malware {
			wantFlags |= wire.FlagMalware
			sawMalware = true
		}
		if wantEvents[i].Alarm {
			wantFlags |= wire.FlagAlarm
		}
		if wantEvents[i].Changed {
			wantFlags |= wire.FlagAlarmChanged
		}
		if v.Flags != wantFlags {
			t.Fatalf("verdict %d: flags %08b, want %08b", i, v.Flags, wantFlags)
		}
		if v.Class != uint8(wantVerdicts[i].PredictedClass) {
			t.Fatalf("verdict %d: class %d, want %d", i, v.Class, wantVerdicts[i].PredictedClass)
		}
		if v.Score != wantScores[i] || v.Smoothed != wantEvents[i].Smoothed {
			t.Fatalf("verdict %d: score %v/%v, want %v/%v", i, v.Score, v.Smoothed, wantScores[i], wantEvents[i].Smoothed)
		}
	}
	if !sawMalware {
		t.Fatal("test corpus produced no malware verdicts; pick different samples")
	}

	if got := reg.Counter("serve_samples_total").Value(); got != n {
		t.Fatalf("serve_samples_total = %d, want %d", got, n)
	}
	if got := reg.Counter("serve_verdicts_total").Value(); got != n {
		t.Fatalf("serve_verdicts_total = %d, want %d", got, n)
	}
	if got := reg.Counter("serve_shed_total").Value(); got != 0 {
		t.Fatalf("serve_shed_total = %d, want 0", got)
	}
	if reg.Histogram("serve_verdict_latency_seconds", telemetry.LatencyBuckets).Summary().Count == 0 {
		t.Fatal("verdict latency histogram empty")
	}
}

// TestServeStreamErrors pins the per-frame protocol errors that do NOT
// kill the connection: duplicate stream ids, a second stream for an app
// already streamed, and closing an unknown stream.
func TestServeStreamErrors(t *testing.T) {
	ts := start(t, Config{}, nil)
	c := dial(t, ts)
	for _, step := range []error{
		c.OpenStream(1, "app-a"),
		c.OpenStream(1, "app-b"), // duplicate id
		c.OpenStream(2, "app-a"), // duplicate app
		c.CloseStream(99),        // never opened
		c.CloseStream(1),
		c.Flush(),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	var errs int
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch fr := f.(type) {
		case wire.Error:
			if fr.Code != wire.CodeBadStream {
				t.Fatalf("error code %d, want CodeBadStream", fr.Code)
			}
			errs++
		case wire.StreamSummary:
			if fr.Stream != 1 || fr.Samples != 0 {
				t.Fatalf("summary %+v, want stream 1 with 0 samples", fr)
			}
			if errs != 3 {
				t.Fatalf("saw %d BadStream errors before the summary, want 3", errs)
			}
			// The connection survived all three errors.
			if err := c.Heartbeat(1); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if hb, err := c.Next(); err != nil {
				t.Fatal(err)
			} else if _, ok := hb.(wire.Heartbeat); !ok {
				t.Fatalf("frame %#v, want heartbeat echo", hb)
			}
			return
		default:
			t.Fatalf("unexpected frame %#v", f)
		}
	}
}

// TestServeCloseReopenSameFlush closes an app's stream and reopens the
// app under a new id within one flush, all landing in one engine round
// (scoring of the first sample is held until the reader has queued the
// rest). Every sample must come back as a verdict on its own stream, and
// each incarnation must get its summary.
func TestServeCloseReopenSameFlush(t *testing.T) {
	reg := telemetry.New()
	entered := make(chan struct{})
	release := make(chan struct{})
	var gate sync.Once
	ts := start(t, Config{Telemetry: reg}, func(s *Server) {
		s.scoreHook = func() {
			gate.Do(func() {
				close(entered)
				<-release
			})
		}
	})
	c := dial(t, ts)
	_, data := fixtures(t)
	const n = 16
	samples := samplesFrom(data, n)
	send := func(steps ...error) {
		t.Helper()
		for _, err := range steps {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	send(c.OpenStream(1, "app-a"), c.Send(1, 0, samples[0]), c.Flush())
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started scoring")
	}
	for i := 1; i < n; i++ {
		send(c.Send(1, uint32(i), samples[i]))
	}
	send(c.CloseStream(1), c.OpenStream(2, "app-a"))
	for i := 0; i < n; i++ {
		send(c.Send(2, uint32(i), samples[i]))
	}
	send(c.CloseStream(2), c.Flush())
	for deadline := time.Now().Add(10 * time.Second); reg.Counter("serve_samples_total").Value() < 2*n; {
		if time.Now().After(deadline) {
			t.Fatal("reader never queued the second flush")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	next := map[uint32]uint32{}
	summaries := map[uint32]wire.StreamSummary{}
	for len(summaries) < 2 {
		f, err := c.Next()
		if err != nil {
			t.Fatalf("after %d summaries: %v", len(summaries), err)
		}
		switch fr := f.(type) {
		case wire.Verdict:
			if fr.Seq != next[fr.Stream] {
				t.Fatalf("stream %d: verdict seq %d, want %d", fr.Stream, fr.Seq, next[fr.Stream])
			}
			next[fr.Stream]++
		case wire.StreamSummary:
			summaries[fr.Stream] = fr
		default:
			t.Fatalf("unexpected frame %#v", f)
		}
	}
	for _, id := range []uint32{1, 2} {
		if next[id] != n || summaries[id].Samples != n || summaries[id].Shed != 0 {
			t.Fatalf("stream %d: %d verdicts, summary %+v, want %d of each and no shed", id, next[id], summaries[id], n)
		}
	}
}

// TestServeRejectsVersionMismatch checks the handshake failure path with a
// raw connection speaking a future protocol version.
func TestServeRejectsVersionMismatch(t *testing.T) {
	ts := start(t, Config{}, nil)
	nc, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	w := wire.NewWriter(nc)
	if err := w.Write(wire.Hello{Proto: 99, Agent: "future"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := wire.NewReader(nc).Next()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := f.(wire.Error)
	if !ok || e.Code != wire.CodeVersion {
		t.Fatalf("reply %#v, want Error{CodeVersion}", f)
	}
}

// TestServeRejectsBadFeatureWidth checks that a sample with the wrong
// feature count draws CodeBadFeatures and closes the connection.
func TestServeRejectsBadFeatureWidth(t *testing.T) {
	ts := start(t, Config{}, nil)
	c := dial(t, ts)
	if err := c.OpenStream(1, "app-a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(1, 0, []float64{1, 2}); err != nil { // model wants 4
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for {
		f, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := f.(wire.Error); ok {
			if e.Code != wire.CodeBadFeatures {
				t.Fatalf("error code %d, want CodeBadFeatures", e.Code)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("connection closed without a CodeBadFeatures error")
	}
}

// TestServeShedsUnderBackpressure slows scoring down artificially so the
// tiny ingress ring must shed, then checks the accounting: every sample is
// either scored (a verdict came back, counted in the summary) or shed
// (counted in the summary and serve_shed_total) — none vanish.
func TestServeShedsUnderBackpressure(t *testing.T) {
	reg := telemetry.New()
	ts := start(t, Config{QueueDepth: 8, Telemetry: reg}, func(s *Server) {
		s.scoreHook = func() { time.Sleep(2 * time.Millisecond) }
	})
	c := dial(t, ts)
	_, data := fixtures(t)
	const n = 400
	if err := c.OpenStream(1, "app-a"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samplesFrom(data, n) {
		if err := c.Send(1, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var verdicts uint64
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := f.(wire.Verdict); ok {
			verdicts++
			continue
		}
		sum, ok := f.(wire.StreamSummary)
		if !ok {
			t.Fatalf("unexpected frame %#v", f)
		}
		if sum.Shed == 0 {
			t.Fatal("expected load shedding with QueueDepth=8 and slowed scoring")
		}
		if sum.Samples != verdicts {
			t.Fatalf("summary says %d samples scored but %d verdicts arrived", sum.Samples, verdicts)
		}
		if sum.Samples+sum.Shed != n {
			t.Fatalf("scored %d + shed %d != sent %d", sum.Samples, sum.Shed, n)
		}
		if got := reg.Counter("serve_shed_total").Value(); got != sum.Shed {
			t.Fatalf("serve_shed_total = %d, summary shed = %d", got, sum.Shed)
		}
		return
	}
}

// TestServeGracefulDrain cancels the server while samples are queued and
// checks that every already-accepted sample still produces a verdict
// before the connection closes.
func TestServeGracefulDrain(t *testing.T) {
	reg := telemetry.New()
	ts := start(t, Config{Telemetry: reg}, nil)
	c := dial(t, ts)
	_, data := fixtures(t)
	const n = 64
	if err := c.OpenStream(3, "app-a"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samplesFrom(data, n) {
		if err := c.Send(3, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has accepted everything, then pull the plug.
	in := reg.Counter("serve_samples_total")
	for deadline := time.Now().Add(10 * time.Second); in.Value() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("server accepted %d/%d samples", in.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
	ts.cancel()

	var verdicts int
	var sawDraining bool
	for {
		f, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch fr := f.(type) {
		case wire.Verdict:
			verdicts++
		case wire.Error:
			if fr.Code != wire.CodeDraining {
				t.Fatalf("error %+v, want CodeDraining", fr)
			}
			sawDraining = true
		default:
			t.Fatalf("unexpected frame %#v", f)
		}
	}
	if verdicts != n {
		t.Fatalf("drain delivered %d verdicts, want %d", verdicts, n)
	}
	if !sawDraining {
		t.Fatal("no CodeDraining notice before close")
	}
	ts.stop(t)
}

// TestServeConcurrentConnections exercises the per-stream isolation model
// under the race detector: several connections, each multiplexing two app
// streams, all scoring concurrently.
func TestServeConcurrentConnections(t *testing.T) {
	ts := start(t, Config{}, nil)
	_, data := fixtures(t)
	const (
		conns     = 4
		perStream = 150
	)
	samples := samplesFrom(data, perStream)
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- func() error {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				c, err := Dial(ctx, ts.addr, "racer")
				if err != nil {
					return err
				}
				defer c.Close()
				for s := uint32(1); s <= 2; s++ {
					app := "app-a"
					if s == 2 {
						app = "app-b"
					}
					if err := c.OpenStream(s, app); err != nil {
						return err
					}
				}
				for i := 0; i < perStream; i++ {
					for s := uint32(1); s <= 2; s++ {
						if err := c.Send(s, uint32(i), samples[i]); err != nil {
							return err
						}
					}
				}
				for s := uint32(1); s <= 2; s++ {
					if err := c.CloseStream(s); err != nil {
						return err
					}
				}
				if err := c.Flush(); err != nil {
					return err
				}
				counts := map[uint32]int{}
				summaries := 0
				for summaries < 2 {
					f, err := c.Next()
					if err != nil {
						return err
					}
					switch fr := f.(type) {
					case wire.Verdict:
						counts[fr.Stream]++
					case wire.StreamSummary:
						if fr.Samples+fr.Shed != perStream {
							t.Errorf("stream %d: scored %d + shed %d != %d", fr.Stream, fr.Samples, fr.Shed, perStream)
						}
						summaries++
					default:
						t.Errorf("unexpected frame %#v", f)
						return nil
					}
				}
				for s := uint32(1); s <= 2; s++ {
					if counts[s] == 0 {
						t.Errorf("stream %d: no verdicts", s)
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeSampleLog runs a stream with the durable sample log attached
// and checks the recorded reality against the verdicts the wire carried:
// same count, same order, same verdict bits, same features.
func TestServeSampleLog(t *testing.T) {
	det, data := fixtures(t)
	dir := t.TempDir()
	sl, err := samplelog.OpenWriter(samplelog.WriterConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := start(t, Config{SampleLog: sl, ModelVersion: 3}, nil)
	c := dial(t, ts)

	const n = 96
	samples := samplesFrom(data, n)
	if err := c.OpenStream(9, "logged-app"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		if err := c.Send(9, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(9); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var verdicts []wire.Verdict
	for {
		f, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := f.(wire.Verdict); ok {
			verdicts = append(verdicts, v)
			continue
		}
		if _, ok := f.(wire.StreamSummary); ok {
			break
		}
		t.Fatalf("unexpected frame %#v", f)
	}
	if len(verdicts) != n {
		t.Fatalf("received %d verdicts, want %d", len(verdicts), n)
	}
	ts.stop(t)
	st, err := sl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appended != n || st.Dropped != 0 {
		t.Fatalf("log stats %+v, want %d appended", st, n)
	}

	var recs []samplelog.Record
	rep, err := samplelog.ReadDir(dir, func(r samplelog.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != n || rep.ScoredRecords != n || rep.TornBytes != 0 || rep.Corrupted != 0 {
		t.Fatalf("verify %+v", rep)
	}
	cd := det.Compile()
	for i, rec := range recs {
		v := verdicts[i]
		if rec.Stream != 9 || rec.App != "logged-app" || rec.ModelVersion != 3 {
			t.Fatalf("record %d identity: %+v", i, rec)
		}
		if !rec.Scored() {
			t.Fatalf("record %d not marked scored", i)
		}
		if rec.Malware() != (v.Flags&wire.FlagMalware != 0) {
			t.Fatalf("record %d malware %v, verdict flags %08b", i, rec.Malware(), v.Flags)
		}
		if (rec.Flags&samplelog.FlagAlarm != 0) != (v.Flags&wire.FlagAlarm != 0) {
			t.Fatalf("record %d alarm bit disagrees with verdict %08b", i, v.Flags)
		}
		if rec.Class != v.Class || rec.Score != v.Score {
			t.Fatalf("record %d class/score %d/%v, verdict %d/%v", i, rec.Class, rec.Score, v.Class, v.Score)
		}
		want := samples[int(v.Seq)]
		if len(rec.Features) != len(want) {
			t.Fatalf("record %d width %d, want %d", i, len(rec.Features), len(want))
		}
		for j := range want {
			if rec.Features[j] != want[j] {
				t.Fatalf("record %d feature %d: %v, want %v", i, j, rec.Features[j], want[j])
			}
		}
		// Replaying the logged features through the same model reproduces
		// the logged verdict: the log is a faithful backtest substrate.
		rv, err := cd.Detect(rec.Features)
		if err != nil {
			t.Fatal(err)
		}
		if rv.Malware != rec.Malware() {
			t.Fatalf("record %d does not replay to its own verdict", i)
		}
	}
}

// TestServeActiveAppsDropOnDisconnect checks that monitor_active_apps
// counts open streams only: the streams an agent leaves open when it
// disconnects, or when the server drains, leave the gauge with their
// connection.
func TestServeActiveAppsDropOnDisconnect(t *testing.T) {
	_, data := fixtures(t)
	reg := telemetry.New()
	ts := start(t, Config{Telemetry: reg, Monitor: monitor.Config{Telemetry: reg}}, nil)
	activeApps := reg.Gauge("monitor_active_apps")
	const streams = 4
	// openStreams dials and scores one sample on each of its streams, so
	// every stream is open on the server once the verdicts are back.
	openStreams := func() *Client {
		c := dial(t, ts)
		for s := uint32(0); s < streams; s++ {
			if err := c.OpenStream(s, fmt.Sprintf("app-%d", s)); err != nil {
				t.Fatal(err)
			}
			if err := c.Send(s, 0, data.Instances[s].Features); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < streams; {
			f, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := f.(wire.Verdict); ok {
				got++
			}
		}
		if got := activeApps.Value(); got != streams {
			t.Fatalf("monitor_active_apps = %v with %d streams open, want %d", got, streams, streams)
		}
		return c
	}
	conns := reg.Gauge("serve_connections_active")
	for i := 1; i <= 3; i++ {
		c := openStreams()
		c.Close()
		for deadline := time.Now().Add(10 * time.Second); conns.Value() != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("serve_connections_active = %v after disconnect %d", conns.Value(), i)
			}
			time.Sleep(time.Millisecond)
		}
		if got := activeApps.Value(); got != 0 {
			t.Fatalf("after disconnect %d: monitor_active_apps = %v, want 0", i, got)
		}
	}
	openStreams()
	ts.stop(t)
	if got := activeApps.Value(); got != 0 {
		t.Fatalf("after drain: monitor_active_apps = %v, want 0", got)
	}
}
