package main

import (
	"slices"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	sp := spec{name: "t", streams: 512, period: paperPeriod, lifetime: 100}
	a, b := newSchedule(sp, 7, 1, 700), newSchedule(sp, 7, 1, 700)
	if !slices.Equal(a.phase, b.phase) || !slices.Equal(a.order, b.order) {
		t.Fatal("same seed and connection gave different schedules")
	}
	for slot := 0; slot < sp.streams; slot++ {
		if a.firstLife(slot) != b.firstLife(slot) || a.input(uint32(slot), 3) != b.input(uint32(slot), 3) {
			t.Fatalf("slot %d: per-stream draws differ between identical schedules", slot)
		}
	}
	for _, other := range []*schedule{newSchedule(sp, 8, 1, 700), newSchedule(sp, 7, 0, 700)} {
		if slices.Equal(a.phase, other.phase) {
			t.Fatal("a different seed or connection gave the same phases")
		}
	}
}

func TestSchedulePhasesSpread(t *testing.T) {
	sp := spec{name: "t", streams: 512, period: paperPeriod}
	s := newSchedule(sp, 1, 0, 100)
	const bins = 10
	var count [bins]int
	for _, p := range s.phase {
		if p < 0 || p >= sp.period {
			t.Fatalf("phase %s outside [0, %s)", p, sp.period)
		}
		count[int(p*bins/sp.period)]++
	}
	// 51.2 expected per bin; a clump would mean sends bunch up.
	for i, n := range count {
		if n < 25 || n > 80 {
			t.Errorf("bin %d of the period holds %d of 512 phases: %v", i, n, count)
		}
	}
	for i := 1; i < len(s.order); i++ {
		if s.phase[s.order[i-1]] > s.phase[s.order[i]] {
			t.Fatal("order is not sorted by phase")
		}
	}
	firstLives := map[int]bool{}
	churn := newSchedule(spec{name: "c", streams: 256, period: paperPeriod, lifetime: 100}, 1, 0, 100)
	for slot := 0; slot < churn.slots; slot++ {
		firstLives[churn.firstLife(slot)] = true
	}
	if len(firstLives) < 50 {
		t.Errorf("only %d distinct first lifetimes over 256 slots: opens would bunch up", len(firstLives))
	}
}

// TestScheduleRoundTrip checks that due and input, which the receiver
// computes from (stream, seq) alone, agree with a slot's run of apps as
// the sender walks it: generation after generation, each for its life.
func TestScheduleRoundTrip(t *testing.T) {
	sp := spec{name: "c", streams: 8, period: 2 * time.Millisecond, lifetime: 5}
	s := newSchedule(sp, 3, 1, 37)
	for slot := 0; slot < sp.streams; slot++ {
		var r int64
		for gen := 0; r < 40; gen++ {
			id := s.stream(slot, gen)
			if gotSlot, gotGen := s.locate(id); gotSlot != slot || gotGen != gen {
				t.Fatalf("locate(%d) = %d,%d want %d,%d", id, gotSlot, gotGen, slot, gen)
			}
			if s.startRound(slot, gen) != r {
				t.Fatalf("slot %d gen %d starts at round %d, want %d", slot, gen, s.startRound(slot, gen), r)
			}
			for seq := uint32(0); int(seq) < s.life(slot, gen); seq++ {
				if want := s.phase[slot] + time.Duration(r)*sp.period; s.due(id, seq) != want {
					t.Fatalf("slot %d round %d: due %s, want %s", slot, r, s.due(id, seq), want)
				}
				if want := (s.offset(slot, gen) + int(seq)) % 37; s.input(id, seq) != want {
					t.Fatalf("input(%d, %d) = %d, want %d", id, seq, s.input(id, seq), want)
				}
				r++
			}
		}
	}
}
