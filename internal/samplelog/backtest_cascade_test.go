package samplelog

import (
	"context"
	"testing"

	"twosmart/internal/anomaly"
	"twosmart/internal/dataset"
	"twosmart/internal/workload"
)

func cascadeEnvelope(t *testing.T, data *dataset.Dataset) *anomaly.Envelope {
	t.Helper()
	var benign [][]float64
	for _, ins := range data.Instances {
		if workload.Class(ins.Label) == workload.Benign {
			benign = append(benign, ins.Features)
		}
	}
	env, err := anomaly.Train(data.FeatureNames, benign, anomaly.TrainConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestBacktestCascade replays a scored log through the cascade envelope
// and checks the section against a straight sequential recount: the
// short/pass split, the short fraction and the safety number (recorded
// malware verdicts the envelope would have suppressed).
func TestBacktestCascade(t *testing.T) {
	live, _, data := fixtures(t)
	env := cascadeEnvelope(t, data)
	dir := t.TempDir()
	n := writeScoredLog(t, dir, live, data)

	res, err := Backtest(context.Background(), dir, live, BacktestOptions{
		Version: 1, Workers: 4, Envelope: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cascade == nil {
		t.Fatal("cascade section missing")
	}
	if res.Cascade.Threshold != env.Threshold {
		t.Fatalf("threshold %v, want envelope default %v", res.Cascade.Threshold, env.Threshold)
	}

	// Independent recount straight off the log records.
	var wantShort, wantPass, wantMalShort uint64
	rep, err := ReadDir(dir, func(r Record) error {
		if !r.Scored() {
			return nil
		}
		if env.Score(r.Features) <= env.Threshold {
			wantShort++
			if r.Malware() {
				wantMalShort++
			}
		} else {
			wantPass++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != n {
		t.Fatalf("recount saw %d records, want %d", rep.Records, n)
	}
	if res.Cascade.ShortCircuited != wantShort || res.Cascade.PassedOn != wantPass {
		t.Fatalf("cascade split %d/%d, want %d/%d",
			res.Cascade.ShortCircuited, res.Cascade.PassedOn, wantShort, wantPass)
	}
	if res.Cascade.MalwareShortCircuited != wantMalShort {
		t.Fatalf("safety number %d, want %d", res.Cascade.MalwareShortCircuited, wantMalShort)
	}
	wantFrac := float64(wantShort) / float64(n)
	if res.Cascade.ShortFraction != wantFrac {
		t.Fatalf("short fraction %v, want %v", res.Cascade.ShortFraction, wantFrac)
	}
	if wantShort == 0 {
		t.Fatal("fixture corpus produced no short-circuits; cascade replay untested")
	}

	// A huge threshold short-circuits everything — every recorded malware
	// verdict becomes a safety violation.
	wide := *env
	wide.Threshold = 1e18
	res, err = Backtest(context.Background(), dir, live, BacktestOptions{
		Envelope: &wide,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cascade.ShortCircuited != uint64(n) || res.Cascade.PassedOn != 0 {
		t.Fatalf("override split %+v, want all short", res.Cascade)
	}
	if res.Cascade.MalwareShortCircuited == 0 {
		t.Fatal("expected recorded malware verdicts to be counted as short-circuited under the wide-open override")
	}

	// No envelope skips the cascade replay entirely.
	res, err = Backtest(context.Background(), dir, live, BacktestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cascade != nil {
		t.Fatalf("cascade section present without an envelope: %+v", res.Cascade)
	}

	// Width mismatch is refused up front.
	bad := *env
	bad.Features = env.Features[:3]
	bad.Lo, bad.Hi, bad.InvWidth = env.Lo[:3], env.Hi[:3], env.InvWidth[:3]
	if _, err := Backtest(context.Background(), dir, live, BacktestOptions{Envelope: &bad}); err == nil {
		t.Fatal("mismatched envelope width must error")
	}
}
