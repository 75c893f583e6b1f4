package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	aas "repro"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples beyond rank 990
		{999, 0.99, 990, false}, // 9 beyond
		{10000, 0.999, 9990, true},
		{9999, 0.999, 9990, false}, // 9 beyond
		{100, 0.5, 50, true},
		{15, 0.5, 8, false}, // 7 beyond: even a median needs ten
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		v, ok := quantile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("n=%d q=%v: got %d ok=%v, want %d ok=%v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("empty sample reported a quantile")
	}
}

func TestHistMatchesRawQuantiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	raw := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(r.ExpFloat64() * 50e3) // ~50 µs mean, ns
		h.add(v)
		raw = append(raw, v)
	}
	if h.n != len(raw) {
		t.Fatalf("hist counts %d samples, want %d", h.n, len(raw))
	}
	slices.Sort(raw)
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want, wantOK := quantile(raw, q)
		got, ok := h.quantile(q)
		if ok != wantOK {
			t.Errorf("q=%v: reportable=%v, raw says %v", q, ok, wantOK)
		}
		if rel := math.Abs(float64(got-want)) / float64(want); rel > 1.0/(1<<subBits) {
			t.Errorf("q=%v: hist %d vs raw %d, relative error %.4f", q, got, want, rel)
		}
	}
	// 20000 samples leave 20 beyond p99.9 but 2 beyond p99.99.
	if _, ok := h.quantile(0.9999); ok {
		t.Error("p99.99 of 20000 samples reported with 2 beyond")
	}
}

func TestHistBuckets(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 12345, 1 << 30, 1<<40 - 1} {
		i := bucketOf(v)
		low, width := bucketBounds(i)
		if v < low || v >= low+width {
			t.Errorf("value %d in bucket %d = [%d, %d)", v, i, low, low+width)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo0, w0 := bucketBounds(i - 1)
		lo1, _ := bucketBounds(i)
		if lo0+w0 != lo1 {
			t.Fatalf("bucket %d ends at %d, bucket %d starts at %d", i-1, lo0+w0, i, lo1)
		}
	}
	if bucketOf(-5) != 0 || bucketOf(math.MaxInt64) != histBuckets-1 {
		t.Error("out-of-range values are not clamped")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b hist
	for i := int64(0); i < 50; i++ {
		a.add(i * 1000)
		b.add(i*1000 + 500)
	}
	a.merge(&b)
	if a.n != 100 {
		t.Fatalf("merged count %d, want 100", a.n)
	}
	if v, _ := a.quantile(1); v < 49000 || v > 49500*1.01 {
		t.Errorf("max after merge %d", v)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{110, 150}}, 60},
		{"disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"child clipped to the span", []interval{{50, 120}, {190, 300}}, 70},
		{"child outside the span", []interval{{10, 90}}, 100},
		{"children cover everything", []interval{{100, 150}, {150, 200}}, 0},
		{"unsorted children", []interval{{160, 170}, {110, 120}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Due at 1000, dispatched 300 late, done 500 after dispatch: the call
	// is charged the generator's lateness too.
	lat, late := openLoopTimes(1000, 1300, 1800)
	if lat != 800 || late != 300 {
		t.Errorf("latency %d late %d, want 800 and 300", lat, late)
	}
	// Dispatched early (clock skew between reads) is not negative lateness.
	if _, late := openLoopTimes(1000, 990, 1500); late != 0 {
		t.Errorf("early dispatch reported lateness %d", late)
	}
}

func TestArrivalsSeededAndAtRate(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 3200, time.Second, 5*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 3200, time.Second, 5*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	c := arrivals(rand.New(rand.NewSource(8)), 3200, time.Second, 5*time.Second)
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
	// 16000 expected; a Poisson count's sd is ~126.
	if n := len(a); n < 15500 || n > 16500 {
		t.Errorf("%d arrivals in 5 s at 3200/s", n)
	}
	for i, d := range a {
		if d < time.Second || d >= 6*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [1s, 6s)", i, d)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median %v, want 3", m)
	}
	in := []float64{4, 1, 3, 2}
	if m := median(in); m != 2 {
		t.Errorf("median %v, want the lower middle 2", m)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestWindowMedian(t *testing.T) {
	wins := make([]hist, 3)
	for i := range wins {
		for j := 0; j < 100; j++ {
			wins[i].add(int64(1000 * (i + 1)))
		}
	}
	v, n, ok := windowMedian(wins, quantileOf(0.5))
	if !ok || n != 300 {
		t.Fatalf("ok=%v n=%d", ok, n)
	}
	if low, w := bucketBounds(bucketOf(2000)); v < float64(low) || v >= float64(low+w) {
		t.Errorf("median of window medians %v, want the middle window's 2000", v)
	}
	// p99.9 of 100 samples is never reportable, so no window reports it.
	if _, _, ok := windowMedian(wins, quantileOf(0.999)); ok {
		t.Error("window median reported from unreportable windows")
	}
}

func TestOverlapping(t *testing.T) {
	actions := []benchSpan{{start: 100, end: 200}, {start: 150, end: 250}, {start: 500, end: 600}}
	calls := []benchSpan{
		{start: 0, end: 50, ok: true},     // before
		{start: 90, end: 110, ok: true},   // overlaps the first action
		{start: 260, end: 490, ok: true},  // between actions
		{start: 590, end: 700, ok: true},  // overlaps the last
		{start: 120, end: 130, ok: false}, // failed calls are not latency samples
	}
	got := overlapping(calls, actions)
	if len(got) != 2 || got[0] != 20 || got[1] != 110 {
		t.Errorf("overlapping durations %v, want [20 110]", got)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want errKind
	}{
		{fmt.Errorf("call Store.get: %w", aas.ErrOverloaded), kindOverloaded},
		{fmt.Errorf("call: %w", context.DeadlineExceeded), kindDeadline},
		{context.Canceled, kindCanceled},
		{fmt.Errorf("x: %w", aas.ErrNoSuchComponent), kindNoSuchComponent},
		{aas.ErrStreamClosed, kindStreamClosed},
		// Text that merely mentions a kind is not that kind.
		{errors.New("overloaded: deadline exceeded"), kindOther},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("%v classified %s, want %s", c.err, kindNames[got], kindNames[c.want])
		}
	}
}

func TestDealExactMix(t *testing.T) {
	a := deal(rand.New(rand.NewSource(1)), 4096, []int{40, 20, 40})
	counts := make([]int, 3)
	for _, k := range a {
		counts[k]++
	}
	// Rounding down gives 1638, 819 and 1638; the one slot left over goes
	// to category 0.
	if !slices.Equal(counts, []int{1639, 819, 1638}) {
		t.Errorf("mix %v, want [1639 819 1638]", counts)
	}
	b := deal(rand.New(rand.NewSource(1)), 4096, []int{40, 20, 40})
	c := deal(rand.New(rand.NewSource(2)), 4096, []int{40, 20, 40})
	if !slices.Equal(a, b) {
		t.Error("same seed dealt different orders")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds dealt the same order")
	}
}
