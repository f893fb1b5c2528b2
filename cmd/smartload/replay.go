package main

import (
	"errors"
	"fmt"
	"time"

	"twosmart/internal/samplelog"
)

// readLog loads every record of the sample log in dir, in append order.
func readLog(dir string) []samplelog.Record {
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
	return recs
}

// streamKey identifies one original stream inside the log. The pair is
// unique per original connection but not across the whole log, which is
// as close as the record format gets; a collision only merges two
// same-app streams onto one replay stream, preserving each one's order.
type streamKey struct {
	app    string
	stream uint32
}

// replayPlan builds the one-connection plan that re-serves recs, a
// recorded sample log in append order, to a model of width features. The
// recorded stream ids came from many original connections, so they can
// collide: every (app, stream) pair gets a fresh stream id in
// first-appearance order, and an app name already in use (the engine
// rejects duplicate apps per connection) gets a #stream suffix. Record
// order is the append order, so each original stream's samples replay in
// their original sequence. Record i is due at its recorded offset from
// the first record divided by amplify; at amplify 0 every record is due
// as soon as the sender reaches it.
func replayPlan(recs []samplelog.Record, amplify, width int) (plan, error) {
	if len(recs) == 0 {
		return plan{}, errors.New("replay: no records")
	}
	type slot struct{ stream, seq uint32 }
	ids := make(map[streamKey]uint32)
	usedApps := make(map[string]bool)
	var streams []planStream
	slots := make([]slot, len(recs))
	for i, r := range recs {
		// A replay is a bit-for-bit re-serve, never a projection.
		if len(r.Features) != width {
			return plan{}, fmt.Errorf("replay: record %d (app %q) has %d features; the served model wants %d — replay the log against a registry generation trained on the same width",
				i, r.App, len(r.Features), width)
		}
		key := streamKey{app: r.App, stream: r.Stream}
		id, ok := ids[key]
		if !ok {
			name := r.App
			if usedApps[name] {
				name = fmt.Sprintf("%s#%d", r.App, r.Stream)
			}
			usedApps[name] = true
			id = uint32(len(streams))
			ids[key] = id
			streams = append(streams, planStream{app: name})
		}
		slots[i] = slot{stream: id, seq: uint32(streams[id].n)}
		streams[id].n++
	}
	first := recs[0].Nanos
	return plan{
		agent:   "smartload-replay",
		streams: streams,
		paced:   amplify > 0,
		sample: func(i int) sample {
			s := sample{stream: slots[i].stream, seq: slots[i].seq, features: recs[i].Features}
			if amplify > 0 {
				s.due = time.Duration((recs[i].Nanos - first) / int64(amplify))
			}
			return s
		},
	}, nil
}
