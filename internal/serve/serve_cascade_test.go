package serve

import (
	"strings"
	"testing"

	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/dataset"
	"twosmart/internal/monitor"
	"twosmart/internal/telemetry"
	"twosmart/internal/wire"
	"twosmart/internal/workload"
)

// trainEnvelope fits a stage-0 envelope over the benign instances of the
// package fixture corpus, in the fixture detector's feature space.
func trainEnvelope(t *testing.T, data *dataset.Dataset) *anomaly.Envelope {
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

// driveStream opens one stream, pushes samples, closes it and collects
// every verdict frame back, plus the stream's closing summary.
func driveStream(t *testing.T, c *Client, samples [][]float64) ([]wire.Verdict, wire.StreamSummary) {
	t.Helper()
	if err := c.OpenStream(3, "app-c"); err != nil {
		t.Fatal(err)
	}
	for i, fv := range samples {
		if err := c.Send(3, uint32(i), fv); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CloseStream(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
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
		if sum, ok := f.(wire.StreamSummary); ok {
			if len(got) != len(samples) {
				t.Fatalf("received %d verdicts, want %d", len(got), len(samples))
			}
			return got, sum
		}
		t.Fatalf("unexpected frame %#v", f)
	}
}

// TestServeCascadeShortCircuitAll drives a stream through an envelope
// whose threshold is so high that every sample is clear benign: every
// verdict must carry the short-circuit flag and the telemetry must
// account for all of them in stage 0 with zero pass-throughs.
func TestServeCascadeShortCircuitAll(t *testing.T) {
	_, data := fixtures(t)
	env := *trainEnvelope(t, data)
	env.Threshold = 1e18
	reg := telemetry.New()
	ts := start(t, Config{Telemetry: reg, Model: Model{Envelope: &env}}, nil)
	c := dial(t, ts)

	const n = 64
	got, _ := driveStream(t, c, samplesFrom(data, n))
	for i, v := range got {
		if v.Flags&wire.FlagShortCircuit == 0 {
			t.Fatalf("verdict %d: flags %08b missing short-circuit", i, v.Flags)
		}
		if v.Flags&wire.FlagMalware != 0 {
			t.Fatalf("verdict %d: short-circuited sample flagged malware", i)
		}
		if v.Class != uint8(workload.Benign) {
			t.Fatalf("verdict %d: class %d, want benign", i, v.Class)
		}
		if v.Score != 0 {
			t.Fatalf("verdict %d: score %v, want 0", i, v.Score)
		}
	}

	if short := reg.Counter("cascade_short_total").Value(); short != n {
		t.Fatalf("cascade_short_total = %d, want %d", short, n)
	}
	if pass := reg.Counter("cascade_pass_total").Value(); pass != 0 {
		t.Fatalf("cascade_pass_total = %d, want 0", pass)
	}
	if nanos := reg.Counter("cascade_stage0_nanos_total").Value(); nanos == 0 {
		t.Fatal("cascade_stage0_nanos_total = 0, want > 0")
	}
	if samples := reg.Counter("cascade_stage0_samples_total").Value(); samples != n {
		t.Fatalf("cascade_stage0_samples_total = %d, want %d", samples, n)
	}
	if s1 := reg.Counter("cascade_stage1_samples_total").Value(); s1 != 0 {
		t.Fatalf("cascade_stage1_samples_total = %d, want 0", s1)
	}
}

// TestServeCascadeOffWithoutEnvelope checks that a server given no
// envelope runs no cascade: no verdict carries the flag and no cascade_*
// family is ever registered.
func TestServeCascadeOffWithoutEnvelope(t *testing.T) {
	_, data := fixtures(t)
	reg := telemetry.New()
	ts := start(t, Config{Telemetry: reg}, nil)
	c := dial(t, ts)

	got, _ := driveStream(t, c, samplesFrom(data, 32))
	for i, v := range got {
		if v.Flags&wire.FlagShortCircuit != 0 {
			t.Fatalf("verdict %d: short-circuit flag with cascade disabled", i)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "cascade_") {
		t.Fatalf("disabled cascade registered cascade_* families:\n%s", sb.String())
	}
}

// TestServeCascadeMixedEquivalence runs the cascade at its calibrated
// threshold over a mixed corpus slice and checks every verdict against an
// independent reference that applies the same partition: short-circuited
// samples get the benign verdict with score 0, pass-throughs get the full
// fused-path verdict, and the EWMA monitor observes the partitioned score
// sequence.
func TestServeCascadeMixedEquivalence(t *testing.T) {
	det, data := fixtures(t)
	env := trainEnvelope(t, data)
	reg := telemetry.New()
	ts := start(t, Config{Telemetry: reg, Model: Model{Envelope: env}}, nil)
	c := dial(t, ts)

	const n = 128
	samples := samplesFrom(data, n)
	got, sum := driveStream(t, c, samples)

	// Reference partition + full-path verdicts for the pass-throughs.
	cd := det.Compile()
	wantVerdicts := make([]core.Verdict, n)
	wantScores := make([]float64, n)
	if err := cd.DetectScoredBatch(wantVerdicts, wantScores, samples); err != nil {
		t.Fatal(err)
	}
	shorts := 0
	for i, fv := range samples {
		if env.Score(fv) <= env.Threshold {
			wantVerdicts[i] = core.Verdict{PredictedClass: workload.Benign, Confidence: 1, Stage: core.StageShortCircuit}
			wantScores[i] = 0
			shorts++
		}
	}
	mon, err := monitor.New(det.Compile(), monitor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := make([]monitor.Event, n)
	if err := mon.ObserveScoredBatch(wantEvents, wantScores); err != nil {
		t.Fatal(err)
	}
	if shorts == 0 || shorts == n {
		t.Fatalf("degenerate partition: %d/%d short-circuited; fixture corpus should mix", shorts, n)
	}

	for i, v := range got {
		var wantFlags uint8
		if wantVerdicts[i].Stage == core.StageShortCircuit {
			wantFlags |= wire.FlagShortCircuit
		}
		if wantVerdicts[i].Malware {
			wantFlags |= wire.FlagMalware
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
		if v.Score != wantScores[i] {
			t.Fatalf("verdict %d: score %v, want %v", i, v.Score, wantScores[i])
		}
	}

	if short := reg.Counter("cascade_short_total").Value(); short != uint64(shorts) {
		t.Fatalf("cascade_short_total = %d, want %d", short, shorts)
	}
	if pass := reg.Counter("cascade_pass_total").Value(); pass != uint64(n-shorts) {
		t.Fatalf("cascade_pass_total = %d, want %d", pass, n-shorts)
	}
	if s1 := reg.Counter("cascade_stage1_samples_total").Value(); s1 != uint64(n-shorts) {
		t.Fatalf("cascade_stage1_samples_total = %d, want %d", s1, n-shorts)
	}

	// The stream's closing summary accounts the same partitioned score
	// sequence as the reference monitor.
	var wantAlarms uint32
	var wantMax float64
	for _, ev := range wantEvents {
		if ev.Changed && ev.Alarm {
			wantAlarms++
		}
		wantMax = max(wantMax, ev.Smoothed)
	}
	if sum.Samples != n || sum.Alarms != wantAlarms || sum.MaxSmoothed != wantMax {
		t.Fatalf("summary samples=%d alarms=%d max_smoothed=%v, want %d/%d/%v",
			sum.Samples, sum.Alarms, sum.MaxSmoothed, n, wantAlarms, wantMax)
	}
}
