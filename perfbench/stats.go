package main

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail value resting on fewer is one scheduler hiccup away from
// a different number.
const minBeyond = 10

// rankOf is the nearest-rank position (0-based) of quantile q among n sorted
// samples, and beyond is how many samples lie above that position.
func rankOf(n int, q float64) (rank, beyond int) {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1, n - r
}

// quantile is the nearest-rank q-quantile of sorted. ok is false when fewer
// than minBeyond samples lie beyond it, so the value must not be reported.
func quantile(sorted []int64, q float64) (v int64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	rank, beyond := rankOf(len(sorted), q)
	return sorted[rank], beyond >= minBeyond
}

// median is the nearest-rank median of vals; it sorts a copy.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// subBits sets the histogram's precision: each power of two above 2^subBits
// is split into 2^subBits buckets, a relative error below 1/2^subBits.
const subBits = 7

// histBuckets covers values below 2^40 ns (about 18 minutes); larger ones
// land in the last bucket.
const histBuckets = (41 - subBits) << subBits

// hist is a log-linear histogram of non-negative int64 samples (nanoseconds
// here). It is fixed-size, so recording allocates nothing and a run's
// latency record costs the same memory whatever its length.
type hist struct {
	counts [histBuckets]uint32
	n      int
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	i := (shift+1)<<subBits + int(v>>shift) - 1<<subBits
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds is the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (low, width int64) {
	if i < 1<<subBits {
		return int64(i), 1
	}
	shift := i>>subBits - 1
	return int64(i&(1<<subBits-1)+1<<subBits) << shift, int64(1) << shift
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile applies the same nearest-rank and at-least-ten-beyond rules as
// the package-level quantile. Within the bucket holding the rank it
// interpolates by the rank's position among the bucket's samples, so a
// quantile moves smoothly rather than in bucket-sized steps.
func (h *hist) quantile(q float64) (v int64, ok bool) {
	if h.n == 0 {
		return 0, false
	}
	rank, beyond := rankOf(h.n, q)
	seen := 0
	for i, c := range h.counts {
		if seen+int(c) > rank {
			low, width := bucketBounds(i)
			frac := (float64(rank-seen) + 0.5) / float64(c)
			return low + int64(frac*float64(width)), beyond >= minBeyond
		}
		seen += int(c)
	}
	panic("hist: count does not match its buckets")
}

// interval is one closed-open [start, end) span of wall time in unix ns.
type interval struct{ start, end int64 }

// selfTime is the part of span not covered by any child interval: the span's
// duration minus the union of its children, each clipped to the span, so
// overlapping children (parallel outcalls) are not subtracted twice.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, span.start)
		c.end = min(c.end, span.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered := int64(0)
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	if cur.start != math.MinInt64 {
		covered += cur.end - cur.start
	}
	return span.end - span.start - covered
}

// arrivals draws a Poisson arrival schedule at rate calls per second from
// rng: the due offsets falling in [from, from+span). The offsets are the whole
// input of an open-loop phase, so one seed fixes the schedule exactly.
func arrivals(rng *rand.Rand, rate float64, from, span time.Duration) []time.Duration {
	var due []time.Duration
	t := float64(from)
	end := float64(from + span)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if t >= end {
			return due
		}
		due = append(due, time.Duration(t))
	}
}

// openLoopTimes splits one open-loop call's timing: latency runs from the
// call's due time, not from when the generator got round to sending it, so
// a stall of the generator or the system is charged to every call it
// delayed; late is how far behind schedule the generator dispatched it.
func openLoopTimes(due, dispatched, done int64) (latency, late int64) {
	return done - due, max(0, dispatched-due)
}
