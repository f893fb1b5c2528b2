package main

import (
	"fmt"
	"math/bits"
	"time"
)

// subBits splits every power of two into 1<<subBits linear buckets, so a
// bucket is at most 1/128 (0.8%) of its value wide.
const subBits = 7

const histBuckets = (64 - subBits + 1) << subBits

// hist is a log-linear histogram of nanosecond durations. It keeps the
// whole distribution of a run in a fixed array, merges by addition, and
// interpolates quantiles inside a bucket, so a reported percentile keeps
// its digits instead of snapping to a bucket edge.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - 1 // e >= subBits
	sub := (v >> (e - subBits)) & (1<<subBits - 1)
	return (e-subBits+1)<<subBits + int(sub)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	sub := i & (1<<subBits - 1)
	return float64(uint64(1<<subBits+sub) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolating linearly inside the bucket that holds rank q·n.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// tail is the highest percentile of a sample that still has at least ten
// samples beyond it: p50, p90, p99, p99.9, ... as the count allows.
type tail struct {
	label  string  // "p99.9"
	q      float64 // 0.999
	beyond uint64  // samples above the percentile
}

// tailOf picks the tail percentile for n samples, or ok=false when even
// p50 has fewer than ten samples beyond it.
func tailOf(n uint64) (t tail, ok bool) {
	if n/2 < 10 {
		return tail{}, false
	}
	t = tail{label: "p50", q: 0.5, beyond: n / 2}
	div := uint64(10)
	for k := 1; n/div >= 10; k++ {
		t = tail{label: nines(k), q: 1 - 1/float64(div), beyond: n / div}
		div *= 10
	}
	return t, true
}

// nines spells 1-10^-k as a percentile label: 1→p90, 2→p99, 3→p99.9.
func nines(k int) string {
	switch k {
	case 1:
		return "p90"
	case 2:
		return "p99"
	}
	s := "p99."
	for i := 2; i < k; i++ {
		s += "9"
	}
	return s
}

func (t tail) String() string { return fmt.Sprintf("%s (%d samples beyond)", t.label, t.beyond) }
