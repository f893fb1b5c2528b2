package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"twosmart"
	"twosmart/internal/anomaly"
	"twosmart/internal/core"
	"twosmart/internal/corpus"
	"twosmart/internal/wire"
	"twosmart/internal/workload"
)

// spec is one traffic mix. Every workload is an open loop: each stream
// sends one sample per period on an absolute-time schedule, whether or
// not earlier verdicts came back, so a stall shows as latency measured
// from each sample's due time instead of as a slower sender.
type spec struct {
	name string
	// streams is the number of concurrent app streams per connection.
	streams int
	// period is each stream's sampling period.
	period time.Duration
	// lifetime is how many samples an app sends before it closes and a
	// fresh app opens in its place (0 = apps live for the whole run).
	lifetime int
	// gateway puts one smartgw in front of two smartserve -shard.
	gateway bool
	// envelope serves the model with its stage-0 envelope, and
	// benignOnly replays only benign-class samples.
	envelope   bool
	benignOnly bool
}

// The paper samples HPCs every 10 ms per application. The overload-shape
// workloads compress 16 streams to 18,750 samples/s each, so two
// connections offer 600,000 samples/s with micro-batches of hundreds of
// samples. One shard paced by this process on the same two CPUs keeps up
// to about 1M samples/s, but its latency spread across runs grows from
// 0.01-0.04 at 600k to 0.07-0.15 at 1M, and past about 1.2M it flips
// between keeping up and collapsing into shedding from run to run
// (README.md), so no faster rate gives repeatable numbers here.
const (
	paperPeriod    = 10 * time.Millisecond
	overloadPeriod = time.Second / 18750
)

// specs are the workloads; why each exists is recorded beside its name in
// BENCHMARK.json and in README.md.
var specs = []spec{
	{name: "shard-steady", streams: 512, period: paperPeriod},
	{name: "shard-churn", streams: 256, period: paperPeriod, lifetime: 100},
	{name: "shard-overload", streams: 16, period: overloadPeriod},
	{name: "benign-cascade", streams: 16, period: overloadPeriod, envelope: true, benignOnly: true},
	{name: "gateway-steady", streams: 512, period: paperPeriod, gateway: true},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mix returns the seeded 64-bit hash of its arguments (splitmix64 over
// each word), so every per-stream draw is a pure function of the seed.
func mix(seed uint64, words ...uint64) uint64 {
	h := seed
	for _, w := range words {
		h += 0x9e3779b97f4a7c15 + w
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// schedule is the open-loop send plan of one connection: which stream
// sends which input when. Every stream slot has a phase in [0, period)
// drawn from the seed, so sends spread over the period; with a lifetime,
// each slot's first app lives a seeded 1..lifetime samples so opens and
// closes spread too. Everything is computed, nothing stored per sample:
// due and input are pure functions of (stream, seq).
type schedule struct {
	seed     uint64
	conn     uint64
	slots    int
	period   time.Duration
	lifetime int
	inputs   int
	phase    []time.Duration // per slot
	order    []int           // slots by ascending phase
}

func newSchedule(sp spec, seed int64, conn, inputs int) *schedule {
	s := &schedule{
		seed:     uint64(seed),
		conn:     uint64(conn),
		slots:    sp.streams,
		period:   sp.period,
		lifetime: sp.lifetime,
		inputs:   inputs,
		phase:    make([]time.Duration, sp.streams),
		order:    make([]int, sp.streams),
	}
	for i := range s.phase {
		s.phase[i] = time.Duration(mix(s.seed, s.conn, uint64(i), 1) % uint64(sp.period))
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool { return s.phase[s.order[a]] < s.phase[s.order[b]] })
	return s
}

// firstLife is how many samples slot's first app sends.
func (s *schedule) firstLife(slot int) int {
	return 1 + int(mix(s.seed, s.conn, uint64(slot), 2)%uint64(s.lifetime))
}

// life is how many samples generation gen of slot sends (0 = unbounded).
func (s *schedule) life(slot, gen int) int {
	switch {
	case s.lifetime == 0:
		return 0
	case gen == 0:
		return s.firstLife(slot)
	}
	return s.lifetime
}

// startRound is the round in which generation gen of slot sends seq 0.
func (s *schedule) startRound(slot, gen int) int64 {
	if gen == 0 {
		return 0
	}
	return int64(s.firstLife(slot)) + int64(gen-1)*int64(s.lifetime)
}

// stream is the wire stream id of slot's generation gen: ids are never
// reused on a connection, so shed counts and verdicts never mix apps.
func (s *schedule) stream(slot, gen int) uint32 { return uint32(gen*s.slots + slot) }

// streamIDs bounds the stream ids the schedule uses before end.
func (s *schedule) streamIDs(end time.Duration) uint32 {
	gens := 1
	if s.lifetime > 0 {
		gens += int(end/s.period)/s.lifetime + 1
	}
	return uint32(gens * s.slots)
}

func (s *schedule) locate(id uint32) (slot, gen int) {
	return int(id) % s.slots, int(id) / s.slots
}

func (s *schedule) app(slot, gen int) string {
	return fmt.Sprintf("c%d-s%d-g%d", s.conn, slot, gen)
}

// due is the sample's send time as an offset from the schedule start.
func (s *schedule) due(id, seq uint32) time.Duration {
	slot, gen := s.locate(id)
	r := s.startRound(slot, gen) + int64(seq)
	return s.phase[slot] + time.Duration(r)*s.period
}

// offset is where generation gen of slot starts in the input rows.
func (s *schedule) offset(slot, gen int) int {
	return int(mix(s.seed, s.conn, uint64(slot), uint64(gen), 3) % uint64(s.inputs))
}

// input is the index of the input row the sample carries: each app
// replays the input rows in order from its own seeded offset.
func (s *schedule) input(id, seq uint32) int {
	slot, gen := s.locate(id)
	return (s.offset(slot, gen) + int(seq)) % s.inputs
}

// expect is the verdict the served model must give one input row.
type expect struct {
	class uint8
	flags uint8 // wire.FlagMalware | wire.FlagShortCircuit
}

// checkedFlags are the verdict bits the correctness gate compares; the
// alarm bits depend on which samples a stream's monitor saw, which
// shedding changes.
const checkedFlags = wire.FlagMalware | wire.FlagShortCircuit

// collectInputs profiles the seed's corpus at the paper's class mix and
// projects it onto the model's features. benignOnly keeps only benign
// rows (the cascade workload).
func collectInputs(ctx context.Context, seed int64, featureNames []string, benignOnly bool) ([][]float64, error) {
	data, err := twosmart.CollectContext(ctx, corpus.Config{
		Scale:       0.05, // paper proportions: 50 benign, 22/17/32/58 malware apps
		MinPerClass: 1,
		Budget:      30000,
		Seed:        seed,
		Omniscient:  true,
		Workers:     1,
	})
	if err != nil {
		return nil, fmt.Errorf("collecting corpus: %w", err)
	}
	data, err = data.SelectByName(featureNames)
	if err != nil {
		return nil, fmt.Errorf("projecting corpus: %w", err)
	}
	var rows [][]float64
	for _, ins := range data.Instances {
		if benignOnly && workload.Class(ins.Label) != workload.Benign {
			continue
		}
		rows = append(rows, ins.Features)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("corpus for seed %d has no usable rows", seed)
	}
	return rows, nil
}

// expectations scores every row offline with its own compiled copy of
// the served detector and, when env is set, the stage-0 envelope at its
// calibrated threshold — exactly what a shard does by default.
func expectations(det *core.Detector, env *anomaly.Envelope, rows [][]float64) ([]expect, error) {
	cd := det.Compile()
	var cenv *anomaly.Compiled
	if env != nil {
		cenv = env.Compile()
	}
	out := make([]expect, len(rows))
	for i, fv := range rows {
		if cenv != nil && cenv.Score(fv) <= env.Threshold {
			out[i] = expect{class: uint8(workload.Benign), flags: wire.FlagShortCircuit}
			continue
		}
		v, err := cd.Detect(fv)
		if err != nil {
			return nil, fmt.Errorf("expected verdict for row %d: %w", i, err)
		}
		out[i].class = uint8(v.PredictedClass)
		if v.Malware {
			out[i].flags = wire.FlagMalware
		}
	}
	return out, nil
}
