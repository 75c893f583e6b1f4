// Allocation-regression tests (DESIGN.md §8): the typed call surface and
// the QoS hot counters have hard per-call allocation ceilings, enforced with
// testing.AllocsPerRun so a regression fails in CI rather than surfacing as
// a slow drift in benchmark numbers. AllocsPerRun counts allocations across
// all goroutines, so the serving side of a call is included in the budget —
// and so stray background work from earlier tests in the package can inflate
// a single batch. minAllocsPerRun takes the best of several batches: the
// floor is the path's own cost, the outliers are the interference.
package aas_test

import (
	"context"
	"errors"
	"testing"
	"time"

	aas "repro"

	"repro/internal/qos"
	"repro/internal/telemetry"
)

func minAllocsPerRun(batches, runs int, f func()) float64 {
	best := testing.AllocsPerRun(runs, f)
	for i := 1; i < batches; i++ {
		if a := testing.AllocsPerRun(runs, f); a < best {
			best = a
		}
	}
	return best
}

// TestTypedCallAllocs pins the synchronous typed local call at ≤2
// allocations per call (measured: 1 — the aspect-invocation frame; the
// envelope, reply channel, waiter slot and timer are all pooled or reused).
func TestTypedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	// Warm the envelope pool and the serve workers before measuring.
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("typed call allocates %.1f/op, budget 2", allocs)
	}
}

// TestTypedAsyncAllocs pins the asynchronous typed call. Async envelopes
// are deliberately never pooled (concurrent Waits race a recycled channel)
// and each future carries its own channel and fallback timer, so the
// ceiling is higher — but still bounded.
func TestTypedAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	for i := 0; i < 64; i++ {
		if _, err := g.Async(ctx, "greet", "world").Wait(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Async(ctx, "greet", "world").Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("typed async call allocates %.1f/op, budget 12", allocs)
	}
}

// TestClientCallAllocs pins the synchronous untyped call against the bench
// Store at 5 allocations (measured: 5 — the variadic argument list, the
// component's result list and its boxed value, that list boxed into the
// aspect chain's result, and the aspect-invocation frame). Client.Call runs
// the typed call path over []any, so the pooled envelope, reply channel,
// waiter slot and timer cost nothing per call.
func TestClientCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys, _ := startBenchSystem(t)
	store := sys.Client("Store")
	ctx := context.Background()
	if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := store.Call(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("untyped call allocates %.1f/op, budget 5", allocs)
	}
}

// TestClientAsyncAllocs pins the asynchronous untyped call against the
// bench Store at 13 allocations (measured: 13). Like the typed async shape,
// each future carries a fresh envelope, channel and fallback timer.
func TestClientAsyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	sys, _ := startBenchSystem(t)
	store := sys.Client("Store")
	ctx := context.Background()
	if _, err := store.Call(ctx, "put", "k", "v"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := store.Async(ctx, "get", "k").Wait(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := store.Async(ctx, "get", "k").Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 13 {
		t.Fatalf("untyped async call allocates %.1f/op, budget 13", allocs)
	}
}

// TestAdmissionEstimatorAllocs pins the admission estimator's hot methods —
// one Observe per served call, one Admit per deadline-budgeted call — at
// zero allocations.
func TestAdmissionEstimatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	a := qos.NewAdmission(4)
	a.Observe(int64(2 * time.Millisecond))
	allocs := minAllocsPerRun(3, 1000, func() {
		a.Observe(int64(time.Millisecond))
		if !a.Admit(3, int64(time.Second)) {
			t.Fatal("healthy admission rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Admission hot path allocates %.1f/op, budget 0", allocs)
	}
}

// TestOverloadRejectAllocs pins the end-to-end shed path at zero: a typed
// call rejected by admission control exits with the bare ErrOverloaded
// sentinel before the envelope lease, so a caller retry-looping against an
// overloaded component costs no garbage at all.
func TestOverloadRejectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	_, short, cleanup := startSaturated(t)
	defer cleanup()
	ctx := context.Background()
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := short.Call(ctx, "work", "x"); !errors.Is(err, aas.ErrOverloaded) {
			t.Fatalf("err = %v, want ErrOverloaded", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rejected call allocates %.1f/op, budget 0", allocs)
	}
}

// TestAdmittedDeadlineCallAllocs pins the accept side: the admission check
// plus the deadline stamp must not lift the synchronous typed call above its
// existing 2-allocation ceiling.
func TestAdmittedDeadlineCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter").With(aas.WithDeadline(time.Second))
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("admitted deadline call allocates %.1f/op, budget 2", allocs)
	}
}

// TestMonitorRecordAllocs pins the QoS hot counter at zero allocations.
func TestMonitorRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	m := qos.NewMonitor(nil, 0, 64)
	m.Record(qos.Latency, 0.001)
	allocs := minAllocsPerRun(3, 1000, func() {
		m.Record(qos.Latency, 0.001)
		m.Record(qos.Throughput, 1)
	})
	if allocs != 0 {
		t.Fatalf("Monitor.Record allocates %.1f/op, budget 0", allocs)
	}
}

// TestSpanRecordAllocs pins the telemetry record path at zero allocations:
// one span write is an atomic claim plus plain word stores into a
// preallocated ring slot (DESIGN.md §11).
func TestSpanRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	r := telemetry.NewRecorder(0)
	s := telemetry.Span{Trace: 1, ID: 1, Start: 100, End: 200, Op: "op", Comp: "C"}
	allocs := minAllocsPerRun(3, 1000, func() {
		r.Record(s)
		if !r.SampleRoot() {
			t.Fatal("rate-1 recorder must sample")
		}
	})
	if allocs != 0 {
		t.Fatalf("span record allocates %.1f/op, budget 0", allocs)
	}
}

// TestTracedCallAllocsSamplingOff proves tracing costs nothing when turned
// off: the same typed call path that holds the 2-allocation budget with
// sampling on (TestTypedCallAllocs) holds it with sampling off too —
// tracing on ≈ tracing off, the span machinery adds no per-call garbage
// either way.
func TestTracedCallAllocsSamplingOff(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Greeter", "1.0", nil, func() any { return &typedGreeter{Greeting: "Hello"} })
	sys, err := aas.Load(greeterADL, aas.Options{Registry: reg.Registry, TraceSampling: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	g := aas.ClientOf[string, string](sys, "Greeter")
	for i := 0; i < 64; i++ {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := g.Call(ctx, "greet", "world"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("untraced typed call allocates %.1f/op, budget 2", allocs)
	}
	if spans := sys.Spans(); len(spans) != 0 {
		t.Fatalf("sampling off recorded %d spans", len(spans))
	}
}

// TestStreamRecvAllocs pins the stream plane's per-item receive cost at ≤1
// allocation per item, producer side included (the handler sends pre-boxed
// items, so the measurement is the plane: credit acquire, pooled chunk
// envelope, bus push, ring insert, Recv, auto-grant). The pooled envelope
// and the ring make the steady-state path allocation-free; the budget of 1
// absorbs scheduling jitter attributing a producer-side allocation into a
// measured run.
func TestStreamRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	f := newFeed()
	reg := aas.NewRegistry()
	reg.MustRegister("Feed", "1.0", nil, func() any { return f })
	sys, err := aas.Load(feedADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	ctx := context.Background()
	st, err := sys.Client("Feed").Stream(ctx, "pump")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Warm the chunk-envelope pool and fill the ring before measuring.
	for i := 0; i < 64; i++ {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := st.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("stream receive allocates %.1f/item, budget 1", allocs)
	}
}

const mediatedADL = `
system Mediated {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
    provide put(key, value) -> (status)
  }
  connector Glue { kind rpc }
  bind Front.get -> Store.get via Glue
}
`

// TestMediatedCallAllocs pins the untyped call that crosses a component
// outcall: Client → Front.fetch → rpc connector → Store.get, at 12
// allocations (measured: 12 — per serving hop the aspect-invocation frame
// and the boxed result; Store's result list and value; Front's outcall
// payload and Store's reply payload; the connector's forwarded request and
// its reply settle; the caller's argument list). The outcall's reply
// channel and fallback timer are leased from a pool, so they cost nothing
// per call.
func TestMediatedCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	reg := aas.NewRegistry()
	reg.MustRegister("Front", "1.0", nil, func() any { return &relay{} })
	reg.MustRegister("Store", "1.0", nil, func() any { return newBenchKV(64) })
	sys, err := aas.Load(mediatedADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	front := sys.Client("Front")
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if _, err := front.Call(ctx, "fetch", "key-00000001"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := minAllocsPerRun(5, 200, func() {
		if _, err := front.Call(ctx, "fetch", "key-00000001"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("mediated call allocates %.1f/op, budget 12", allocs)
	}
}
