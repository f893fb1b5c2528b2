package main

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"twosmart/internal/samplelog"
	"twosmart/internal/serve"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
)

// replayStream is one recorded (app, stream) pair mapped onto a fresh
// wire stream id for the replay connection. The recorded stream ids came
// from many original connections, so they can collide; replay ids are
// assigned sequentially in first-appearance order. App names collide the
// same way (the engine rejects duplicate apps per connection), so a
// reused name gets a #stream suffix.
type replayStream struct {
	id     uint32
	app    string
	count  int // records assigned, fixed by the pre-pass
	opened bool
	seq    uint32
}

// runReplay is smartload's -replay mode: it feeds a recorded sample log
// (smartserve/smartgw -samplelog) back through the wire path on one
// connection, preserving the recorded inter-arrival timeline compressed
// by -amplify (0 = full speed). The recorded verdicts are ignored — the
// point is to re-serve the exact production feature stream and measure
// the live fleet's answers — but record order is the append order, so
// each original stream's samples replay in their original sequence.
func runReplay(ctx context.Context, addr, dir string, amplify int, reportOut string) {
	app.Log.Info("loading sample log", "dir", dir)
	var recs []samplelog.Record
	logRep, err := samplelog.ReadDir(dir, func(r samplelog.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		app.Fatal(err)
	}
	if len(recs) == 0 {
		app.Fatal(fmt.Errorf("replay: no records in %s", dir))
	}
	app.Log.Info("loaded sample log",
		"records", len(recs), "segments", len(logRep.Segments),
		"torn_bytes", logRep.TornBytes, "corrupted", logRep.Corrupted,
		"span", time.Duration(logRep.LastNanos-logRep.FirstNanos).String())

	// Probe the target once: the recorded feature width must match the
	// served model exactly — a replay is a bit-for-bit re-serve, never a
	// projection.
	probe, err := serve.Dial(ctx, addr, "smartload-probe")
	if err != nil {
		app.Fatal(fmt.Errorf("dialing %s: %w", addr, err))
	}
	welcome := probe.Welcome()
	probe.Close()
	app.Log.Info("probed server",
		"model", welcome.Model, "model_version", welcome.ModelVersion,
		"features", welcome.NumFeatures)
	for i, r := range recs {
		if len(r.Features) != int(welcome.NumFeatures) {
			app.Fatal(fmt.Errorf("replay: record %d (app %q) has %d features; the served model wants %d — replay the log against a registry generation trained on the same width",
				i, r.App, len(r.Features), welcome.NumFeatures))
		}
	}

	streams, order := mapStreams(recs)
	app.Log.Info("starting replay",
		"records", len(recs), "streams", len(streams), "amplify", amplify)

	start := time.Now()
	agg := driveReplay(ctx, addr, recs, streams, order, amplify)
	elapsed := time.Since(start)
	if agg.err != nil {
		if ctx.Err() != nil {
			app.Fatal(context.Canceled)
		}
		app.Fatal(fmt.Errorf("replay: %s (sent %d/%d records, received %d verdicts)",
			classify(agg.err), agg.sent, len(recs), agg.verdicts))
	}

	perSec := float64(agg.sent) / elapsed.Seconds()
	fmt.Printf("replayed %d records over %d streams in %.2fs (%.0f samples/s, amplify %d)\n",
		agg.sent, len(streams), elapsed.Seconds(), perSec, amplify)
	fmt.Printf("verdicts %d (%.0f/s)  alarms %d\n", agg.verdicts, float64(agg.verdicts)/elapsed.Seconds(), agg.alarms)
	fmt.Printf("shed     %d\n", agg.shed)
	if len(agg.latencies) > 0 {
		sort.Float64s(agg.latencies)
		fmt.Printf("latency  p50=%s p95=%s p99=%s max=%s\n",
			quantile(agg.latencies, 0.50), quantile(agg.latencies, 0.95),
			quantile(agg.latencies, 0.99), quantile(agg.latencies, 1))
		lat := app.Telemetry.Histogram("load_verdict_latency_seconds", telemetry.LatencyBuckets)
		for _, l := range agg.latencies {
			lat.Observe(l)
		}
	}
	if hb := hbHist().Summary(); hb.Count > 0 {
		fmt.Printf("hb rtt   p50=%s p99=%s max=%s (%d echoes)\n",
			time.Duration(hb.P50*float64(time.Second)),
			time.Duration(hb.P99*float64(time.Second)),
			time.Duration(hb.Max*float64(time.Second)), hb.Count)
	}
	if reportOut != "" {
		rep := app.Telemetry.Report(app.Tool)
		rep.Results["replay_records"] = float64(len(recs))
		rep.Results["replay_streams"] = float64(len(streams))
		rep.Results["replay_amplify"] = float64(amplify)
		rep.Results["samples_sent"] = float64(agg.sent)
		rep.Results["verdicts"] = float64(agg.verdicts)
		rep.Results["shed"] = float64(agg.shed)
		rep.Results["alarms"] = float64(agg.alarms)
		rep.Results["wall_s"] = elapsed.Seconds()
		rep.Results["samples_per_s"] = perSec
		rep.Results["verdicts_per_s"] = float64(agg.verdicts) / elapsed.Seconds()
		if len(agg.latencies) > 0 {
			rep.Results["latency_p50_s"] = quantile(agg.latencies, 0.50).Seconds()
			rep.Results["latency_p99_s"] = quantile(agg.latencies, 0.99).Seconds()
		}
		rep.Results["model_version"] = float64(welcome.ModelVersion)
		rep.Notes = map[string]string{"model": welcome.Model, "replay_log": dir}
		if err := rep.WriteFile(reportOut); err != nil {
			app.Log.Error("write run report", "path", reportOut, "err", err)
		} else if reportOut != "-" {
			app.Log.Info("wrote run report", "path", reportOut)
		}
	}
}

// streamKey identifies one original stream inside the log. The pair is
// unique per original connection but not across the whole log, which is
// as close as the record format gets; a collision only merges two
// same-app streams onto one replay stream, preserving each one's order.
type streamKey struct {
	app    string
	stream uint32
}

// mapStreams assigns every recorded (app, stream) pair a replay stream
// id (sequential, in first-appearance order) and counts its records so
// the driver can pre-size its latency tables. order[i] is the replay
// stream carrying record i.
func mapStreams(recs []samplelog.Record) ([]*replayStream, []*replayStream) {
	byKey := make(map[streamKey]*replayStream)
	usedApps := make(map[string]bool)
	var streams []*replayStream
	order := make([]*replayStream, len(recs))
	for i, r := range recs {
		key := streamKey{app: r.App, stream: r.Stream}
		st := byKey[key]
		if st == nil {
			name := r.App
			if usedApps[name] {
				name = fmt.Sprintf("%s#%d", r.App, r.Stream)
			}
			usedApps[name] = true
			st = &replayStream{id: uint32(len(streams)), app: name}
			byKey[key] = st
			streams = append(streams, st)
		}
		st.count++
		order[i] = st
	}
	return streams, order
}

// driveReplay pushes the whole log through one connection: streams open
// lazily at their first record, samples pace against the recorded
// timeline compressed by amplify, and the receiver matches verdicts back
// to send times until every opened stream's summary has arrived.
func driveReplay(ctx context.Context, addr string, recs []samplelog.Record, streams []*replayStream, order []*replayStream, amplify int) connResult {
	var res connResult
	c, err := serve.Dial(ctx, addr, "smartload-replay")
	if err != nil {
		res.err = err
		return res
	}
	defer c.Close()

	// Send times cross to the receiver through atomics, indexed by the
	// replay (stream, seq) the verdict echoes back.
	sendNanos := make([][]atomic.Int64, len(streams))
	for _, st := range streams {
		sendNanos[st.id] = make([]atomic.Int64, st.count)
	}

	recvDone := make(chan connResult, 1)
	go func() {
		var r connResult
		summaries := 0
		for summaries < len(streams) {
			f, err := c.Next()
			if err != nil {
				r.err = err
				break
			}
			switch fr := f.(type) {
			case wire.Heartbeat:
				if rtt := time.Since(time.Unix(0, int64(fr.Nanos))).Seconds(); rtt > 0 {
					hbHist().Observe(rtt)
				}
			case wire.Verdict:
				r.verdicts++
				if fr.Flags&wire.FlagAlarm != 0 {
					r.alarms++
				}
				if int(fr.Stream) < len(sendNanos) && int(fr.Seq) < len(sendNanos[fr.Stream]) {
					if t0 := sendNanos[fr.Stream][fr.Seq].Load(); t0 != 0 {
						r.latencies = append(r.latencies, time.Since(time.Unix(0, t0)).Seconds())
					}
				}
			case wire.StreamSummary:
				r.shed += fr.Shed
				summaries++
			case wire.Error:
				r.err = fmt.Errorf("server error %d: %s", fr.Code, fr.Msg)
			}
			if r.err != nil {
				break
			}
		}
		recvDone <- r
	}()

	first := recs[0].Nanos
	start := time.Now()
send:
	for i, rec := range recs {
		if ctx.Err() != nil {
			res.err = ctx.Err()
			break send
		}
		// Pace against the recorded timeline: record i replays at
		// start + (its recorded offset ÷ amplify), so the whole log's
		// inter-arrival structure survives, just compressed. Targets
		// already in the past (and amplify 0) send immediately.
		if amplify > 0 {
			target := start.Add(time.Duration((rec.Nanos - first) / int64(amplify)))
			if d := time.Until(target); d > 0 {
				// Flush before waiting so sent samples do not idle in
				// the buffer until the next every-64 flush.
				if err := c.Flush(); err != nil {
					res.err = err
					break send
				}
				select {
				case <-time.After(d):
				case <-ctx.Done():
					res.err = ctx.Err()
					break send
				}
			}
		}
		st := order[i]
		if !st.opened {
			if err := c.OpenStream(st.id, st.app); err != nil {
				res.err = err
				break send
			}
			st.opened = true
		}
		sendNanos[st.id][st.seq].Store(time.Now().UnixNano())
		if err := c.Send(st.id, st.seq, rec.Features); err != nil {
			res.err = err
			break send
		}
		st.seq++
		res.sent++
		if i%64 == 63 {
			if err := c.Heartbeat(uint64(time.Now().UnixNano())); err != nil {
				res.err = err
				break send
			}
			if err := c.Flush(); err != nil {
				res.err = err
				break send
			}
		}
	}
	if res.err == nil {
		for _, st := range streams {
			if !st.opened {
				// A stream whose only records were never reached (send
				// aborted early) was never opened; the receiver still
				// counts it, so open-close it for the summary.
				if err := c.OpenStream(st.id, st.app); err != nil {
					res.err = err
					break
				}
			}
			if err := c.CloseStream(st.id); err != nil {
				res.err = err
				break
			}
		}
	}
	if err := c.Flush(); err != nil && res.err == nil {
		res.err = err
	}

	select {
	case r := <-recvDone:
		r.sent = res.sent
		if res.err != nil && r.err == nil {
			r.err = res.err
		}
		return r
	case <-time.After(60 * time.Second):
		res.err = fmt.Errorf("replay receiver did not finish within 60s")
		return res
	}
}
