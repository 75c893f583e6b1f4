// Command perfbench is the repository's benchmark. It drives the AAS
// framework through its public surface only (the aas facade, System,
// ClusterHarness and ClusterNode methods and their telemetry), on one of
// four seeded workloads, checks that every output was correct, and prints
// its metrics: a table for people, then one JSON line for tools.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload local_rpc --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice, untraced then traced, and prints the per-layer metrics.
// METRICS.md lists every metric and the end-to-end metric each layer
// metric should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	aas "repro"
)

// session is one assembled system under one workload.
type session interface {
	nodes() []node
	// warm runs unrecorded load after set-up.
	warm() error
	// drive runs the measured window from start to end, filling o.
	drive(o *outcome, start, end time.Time, traced bool) error
	// finish runs the workload's own correctness gates after quiescence.
	finish(o *outcome) error
	close()
}

type workload struct {
	name string
	// build assembles a system up to its first successful call.
	build func(traced bool) (session, error)
}

func workloads(seed int64, window time.Duration) map[string]workload {
	rpc := func(name string, sh rpcShape) workload {
		in := genRPC(sh, seed)
		return workload{name: name, build: func(traced bool) (session, error) {
			s, err := buildRPC(sh, in, traced)
			if err != nil {
				return nil, err
			}
			return s, nil
		}}
	}
	ol := genOverload(seed, window)
	return map[string]workload{
		"local_rpc":      rpc("local_rpc", localShape),
		"remote_rpc":     rpc("remote_rpc", remoteShape),
		"reconfig_churn": rpc("reconfig_churn", churnShape),
		"overload": {name: "overload", build: func(traced bool) (session, error) {
			s, err := buildOverload(ol, traced)
			if err != nil {
				return nil, err
			}
			return s, nil
		}},
	}
}

// An end-to-end run assembles its system setupWarm+setups times and keeps
// the last; setup_s is the median of the timed assemblies. The first
// assemblies of a process run slower while the runtime and the kernel's
// socket state warm up, so they are not timed.
const (
	setupWarm = 3
	setups    = 61
)

// windows splits a measured window into equal parts; closed-loop rate and
// latency, and peak heap, are medians over the parts, so one stall of the
// machine moves one part only.
const windows = 10

func main() {
	name := flag.String("workload", "", "local_rpc, remote_rpc, reconfig_churn or overload")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", "", "where a traced run writes its spans (none when empty)")
	flag.Parse()
	window := time.Duration(*seconds) * time.Second
	w, ok := workloads(*seed, window)[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One caller per CPU of a 2-CPU machine; never more Ps than CPUs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	fmt.Printf("workload %s seed %d seconds %d trace %d gomaxprocs %d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	var rep *report
	if *trace == 0 {
		o, err := measure(w, window, false, setupWarm+setups, 0)
		if err != nil {
			fail(w.name, err)
		}
		if rep, err = endToEnd(o); err != nil {
			fail(w.name, err)
		}
	} else {
		plain, err := measure(w, window, false, 1, 0)
		if err != nil {
			fail(w.name, err)
		}
		traced, err := measure(w, window, true, 1, plain.ok)
		if err != nil {
			fail(w.name, err)
		}
		rep = perLayer(plain, traced)
		if *spansDir != "" {
			if err := writeSpans(*spansDir, w.name, traced); err != nil {
				fail(w.name, fmt.Errorf("write spans: %w", err))
			}
		}
	}
	rep.print(os.Stdout)
}

func fail(name string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	os.Exit(1)
}

// outcome is everything one measured window produced.
type outcome struct {
	setup   []float64 // seconds per assembly
	seconds float64

	attempted, ok, good, wrong uint64
	kinds                      [numKinds]uint64
	firstErr                   error
	lat                        []hist // successful-call latency per window
	expectCalls                uint64 // traced runs: calls the untraced run completed

	mem         memWindow
	mon         *monitor
	before      []aas.Telemetry
	after       []aas.Telemetry
	batchBefore [2]uint64 // writes, frames summed over nodes
	batchAfter  [2]uint64
	pendingEnd  int
	goroutines  int

	actions   []benchSpan // controller actions
	calls     []benchSpan // traced runs: every call
	progSpans []aas.Span  // traced runs: the program's recorded spans

	// Open-loop results.
	rates   []rateRecord
	late    hist
	offered uint64

	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) addLanes(lanes []*lane) {
	for _, l := range lanes {
		o.attempted += l.attempted
		o.ok += l.ok
		o.good += l.good
		o.wrong += l.wrong
		for k, n := range l.kinds {
			o.kinds[k] += n
		}
		for i := range l.wins {
			o.lat[i].merge(&l.wins[i])
		}
		o.calls = append(o.calls, l.spans...)
		if o.firstErr == nil {
			o.firstErr = l.firstErr
		}
	}
}

func batchStats(nodes []node) (t [2]uint64) {
	for _, n := range nodes {
		if n.cn != nil {
			w, f := n.cn.BatchStats()
			t[0] += w
			t[1] += f
		}
	}
	return t
}

// measure assembles the workload's system setupRuns times (keeping the
// last), warms it, runs one measured window and checks every correctness
// gate. expect is the untraced run's completed calls, used by traced runs
// to size span buffers up front.
func measure(w workload, window time.Duration, traced bool, setupRuns int, expect uint64) (*outcome, error) {
	o := &outcome{seconds: window.Seconds(), lat: make([]hist, windows), expectCalls: expect}
	var s session
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			s.close()
		}
		// Start each assembly from a collected heap, so one assembly
		// does not pay for collecting the last one's garbage.
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.build(traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i >= setupWarm {
			o.setup = append(o.setup, time.Since(t0).Seconds())
		}
	}
	defer s.close()
	if err := s.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	nodes := s.nodes()
	before, err := quiesce(nodes, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("after warm-up: %w", err)
	}
	o.before, o.batchBefore = before, batchStats(nodes)
	m0 := readMem()
	start := time.Now()
	o.mon = &monitor{nodes: nodes, traced: traced, start: start,
		winLen: window / windows, heapPeaks: make([]uint64, windows)}
	halt := background(o.mon.run)
	err = s.drive(o, start, start.Add(window), traced)
	m1 := readMem()
	halt()
	if err != nil {
		return nil, err
	}
	o.mem = m1.sub(m0)

	// Correctness gates: any failure voids the run's numbers.
	if o.after, err = quiesce(nodes, 10*time.Second); err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	o.batchAfter = batchStats(nodes)
	if o.wrong > 0 {
		return nil, fmt.Errorf("gate: %d calls returned wrong output: %v", o.wrong, o.firstErr)
	}
	if n := o.kinds[kindOther]; n > 0 {
		return nil, fmt.Errorf("gate: %d calls failed with unclassified errors, first: %v", n, o.firstErr)
	}
	if traced {
		for _, n := range nodes {
			o.progSpans = append(o.progSpans, n.sys.Spans()...)
		}
	}
	if err := s.finish(o); err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	for _, n := range nodes {
		o.pendingEnd += n.sys.PendingCalls()
	}
	if o.pendingEnd != 0 {
		return nil, fmt.Errorf("gate: %d calls still pending", o.pendingEnd)
	}
	o.goroutines = runtime.NumGoroutine()
	return o, nil
}
