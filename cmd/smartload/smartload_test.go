package main

import (
	"context"
	"io"
	"log/slog"
	"reflect"
	"testing"
	"time"

	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/samplelog"
	"twosmart/internal/serve"
	"twosmart/internal/telemetry"
)

// startServer trains a tiny Common-4 detector, serves it in-process on a
// loopback listener until the test ends, and returns the bound address,
// the server's metrics and the training corpus's feature rows.
func startServer(t *testing.T) (string, *telemetry.Registry, [][]float64) {
	t.Helper()
	data, err := corpus.Collect(corpus.Config{
		Scale:       0.001,
		MinPerClass: 24,
		Budget:      30000,
		Seed:        7,
		Omniscient:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if data, err = data.SelectByName(core.CommonFeatures); err != nil {
		t.Fatal(err)
	}
	det, err := core.Train(data, core.TrainConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	srv, err := serve.New(serve.Config{Model: serve.Model{Detector: det}, Telemetry: reg,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	rows := make([][]float64, data.Len())
	for i, ins := range data.Instances {
		rows[i] = ins.Features
	}
	return addr.String(), reg, rows
}

// TestSyntheticPlanDrive runs a 2-stream × 50-sample synthetic plan,
// unpaced and at 1 ms, against a live server: every (stream, seq) gets
// exactly one timed verdict, every stream its summary, and the fates
// reconcile with nothing lost.
func TestSyntheticPlanDrive(t *testing.T) {
	addr, reg, rows := startServer(t)
	const streams, samples = 2, 50
	var served uint64
	for _, interval := range []time.Duration{0, time.Millisecond} {
		plans, err := synthPlans(rows, 2, streams, samples, interval)
		if err != nil {
			t.Fatal(err)
		}
		p := plans[1]
		if p.agent != "smartload-1" || p.paced != (interval > 0) ||
			!reflect.DeepEqual(p.streams, []planStream{{"conn1-app0", samples}, {"conn1-app1", samples}}) {
			t.Fatalf("interval %s: plan = %+v", interval, p)
		}
		if s := p.sample(5); s.stream != 1 || s.seq != 2 || s.due != 2*interval || &s.features[0] != &rows[5][0] {
			t.Fatalf("interval %s: sample(5) = %+v, want stream 1 seq 2 due %s on row 5", interval, s, 2*interval)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		r := drive(ctx, addr, p)
		cancel()
		if r.err != nil {
			t.Fatalf("interval %s: drive: %v", interval, r.err)
		}
		const total = streams * samples
		if r.sent != total || r.verdicts != total || r.shed != 0 || r.lost() != 0 {
			t.Fatalf("interval %s: sent %d, verdicts %d, shed %d, lost %d; want %d verdicts, nothing shed or lost",
				interval, r.sent, r.verdicts, r.shed, r.lost(), total)
		}
		// A verdict consumes its sample's due time, so one latency per
		// verdict means no (stream, seq) was answered twice or missed.
		if len(r.latencies) != total {
			t.Fatalf("interval %s: %d verdicts timed, want one per (stream, seq) = %d", interval, len(r.latencies), total)
		}
		if r.versions[0] != streams || len(r.versions) != 1 {
			t.Fatalf("interval %s: summaries per model version = %v, want %d", interval, r.versions, streams)
		}
		served += total
		if got := reg.Counter("serve_verdicts_total").Value(); got != served {
			t.Fatalf("interval %s: server emitted %d verdicts, want %d", interval, got, served)
		}
	}
}

// TestReplayPlan checks how replayPlan maps a log: recorded (app, stream)
// pairs map to fresh stream ids in first-appearance order, a reused app
// name gets a #stream suffix, each stream keeps its record order, and
// due offsets are the recorded offsets divided by amplify (all 0, and
// unpaced, at amplify 0).
func TestReplayPlan(t *testing.T) {
	rec := func(app string, stream uint32, nanos int64) samplelog.Record {
		return samplelog.Record{App: app, Stream: stream, Nanos: nanos, Features: []float64{float64(nanos), 1}}
	}
	recs := []samplelog.Record{
		rec("a", 1, 1000),
		rec("a", 2, 3000), // same app, other recorded stream
		rec("a", 1, 5000),
		rec("b", 1, 7000),
		rec("a", 2, 9000),
	}
	wantStreams := []planStream{{"a", 2}, {"a#2", 2}, {"b", 1}}
	want := []sample{{stream: 0, seq: 0}, {stream: 1, seq: 0}, {stream: 0, seq: 1}, {stream: 2, seq: 0}, {stream: 1, seq: 1}}
	for _, amplify := range []int{0, 1, 2} {
		p, err := replayPlan(recs, amplify, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.streams, wantStreams) || p.paced != (amplify > 0) {
			t.Fatalf("amplify %d: streams %+v paced %v, want %+v paced %v", amplify, p.streams, p.paced, wantStreams, amplify > 0)
		}
		for i, w := range want {
			if amplify > 0 { // records are 2 µs apart
				w.due = time.Duration(2000 * i / amplify)
			}
			w.features = recs[i].Features
			if got := p.sample(i); !reflect.DeepEqual(got, w) {
				t.Errorf("amplify %d: sample(%d) = %+v, want %+v", amplify, i, got, w)
			}
		}
	}
	if _, err := replayPlan(recs, 1, 3); err == nil {
		t.Error("replayPlan accepted records narrower than the model")
	}
	if _, err := replayPlan(nil, 1, 2); err == nil {
		t.Error("replayPlan accepted an empty log")
	}
}
