package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	aas "repro"
)

// node is one system the benchmark observes: a standalone System, or a
// cluster node's System together with its ClusterNode.
type node struct {
	sys *aas.System
	cn  *aas.ClusterNode
}

func (n node) telemetry() aas.Telemetry {
	if n.cn != nil {
		return n.cn.Telemetry()
	}
	return n.sys.Telemetry()
}

// spanKind names what a benchmark span wraps: one public call the benchmark
// makes into the program.
type spanKind uint8

const (
	spanTypedCall spanKind = iota
	spanClientCall
	spanMigrate
	spanSwap
	spanReplaceFilters
	spanTelemetry
)

// benchSpan is one benchmark-side span, kept in memory during a traced run.
type benchSpan struct {
	start, end int64
	kind       spanKind
	ok         bool
}

// timed runs fn as one benchmark span of kind k.
func timed(k spanKind, fn func() error) (benchSpan, error) {
	start := time.Now().UnixNano()
	err := fn()
	return benchSpan{start: start, end: time.Now().UnixNano(), kind: k, ok: err == nil}, err
}

// heapInuse reads the runtime's in-use heap span bytes without stopping
// the world: live-or-unswept object bytes plus free slots in in-use spans,
// the runtime/metrics equivalent of MemStats.HeapInuse.
type heapInuse struct{ samples []metrics.Sample }

func newHeapInuse() *heapInuse {
	return &heapInuse{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapInuse) read() uint64 {
	metrics.Read(h.samples)
	return h.samples[0].Value.Uint64() + h.samples[1].Value.Uint64()
}

// monitor samples the process while a window runs: peak heap always, and
// in traced runs the nodes' Telemetry snapshots (held-message peak,
// admission ledgers, snapshot cost).
type monitor struct {
	nodes  []node
	traced bool
	start  time.Time
	winLen time.Duration

	heapPeaks []uint64 // peak heap in use per window
	heldPeak  uint64
	adm       admissionLedger
	snapshots []benchSpan // one per Telemetry() call
}

// The heap is read often, since its peak lasts only until the next GC; the
// reading stops nothing. Telemetry snapshots cost more and are rarer.
const (
	heapEvery    = 5 * time.Millisecond
	monitorEvery = 200 * time.Millisecond
)

func (m *monitor) run(stop <-chan struct{}) {
	heap := newHeapInuse()
	t := time.NewTicker(monitorEvery)
	defer t.Stop()
	heapTick := time.NewTicker(heapEvery)
	defer heapTick.Stop()
	if m.traced {
		m.sample()
	}
	for {
		i := min(int(time.Since(m.start)/m.winLen), len(m.heapPeaks)-1)
		m.heapPeaks[i] = max(m.heapPeaks[i], heap.read())
		select {
		case <-stop:
			if m.traced {
				m.sample() // close the admission ledger at the window's end
			}
			return
		case <-heapTick.C:
		case <-t.C:
			if m.traced {
				m.sample()
			}
		}
	}
}

func (m *monitor) sample() {
	held := uint64(0)
	for _, n := range m.nodes {
		var snap aas.Telemetry
		sp, _ := timed(spanTelemetry, func() error { snap = n.telemetry(); return nil })
		m.snapshots = append(m.snapshots, sp)
		held += snap.Bus.Held
		m.adm.observe(snap)
	}
	m.heldPeak = max(m.heldPeak, held)
}

// admissionLedger accumulates admission counters across snapshots. A
// component's ledger lives on the node hosting it and vanishes when it
// migrates away, so the ledger adds each (node, component) counter's growth
// between consecutive samples rather than diffing two end points.
type admissionLedger struct {
	last               map[string][2]uint64
	admitted, rejected uint64
	estimate           map[string]float64 // latest non-zero EWMA per component
}

func (a *admissionLedger) observe(snap aas.Telemetry) {
	if a.last == nil {
		a.last = map[string][2]uint64{}
		a.estimate = map[string]float64{}
	}
	for _, st := range snap.Admission {
		key := snap.Node + "/" + st.Component
		prev, seen := a.last[key]
		if seen && st.Admitted >= prev[0] && st.Rejected >= prev[1] {
			a.admitted += st.Admitted - prev[0]
			a.rejected += st.Rejected - prev[1]
		}
		a.last[key] = [2]uint64{st.Admitted, st.Rejected}
		if st.EstimateNanos > 0 {
			a.estimate[st.Component] = st.EstimateNanos
		}
	}
}

// quiesce waits until no node has a pending call and every node's bus
// ledger balances (Sent == Delivered + Dropped + Held), then returns the
// final snapshots. It fails when either does not hold within limit.
func quiesce(nodes []node, limit time.Duration) ([]aas.Telemetry, error) {
	deadline := time.Now().Add(limit)
	for {
		snaps := make([]aas.Telemetry, len(nodes))
		var bad error
		for i, n := range nodes {
			snaps[i] = n.telemetry()
			b := snaps[i].Bus
			switch {
			case n.sys.PendingCalls() != 0:
				bad = fmt.Errorf("node %q: %d pending calls", snaps[i].Node, n.sys.PendingCalls())
			case b.Sent != b.Delivered+b.Dropped+b.Held:
				bad = fmt.Errorf("node %q: bus not conserved: sent=%d delivered=%d dropped=%d held=%d",
					snaps[i].Node, b.Sent, b.Delivered, b.Dropped, b.Held)
			}
		}
		if bad == nil {
			return snaps, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("not quiescent after %v: %w", limit, bad)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lane is one caller's record of a measured window.
type lane struct {
	wins      []hist // latency of successful calls, one histogram per window
	attempted uint64
	ok        uint64
	good      uint64 // succeeded within budget (all successes when unbudgeted)
	kinds     [numKinds]uint64
	wrong     uint64
	firstErr  error
	spans     []benchSpan
}

func newLane(windows, spanCap int) *lane {
	l := &lane{wins: make([]hist, windows)}
	if spanCap > 0 {
		l.spans = make([]benchSpan, 0, spanCap)
	}
	return l
}

func (l *lane) record(win int, s benchSpan, budget time.Duration, err error, traced bool) {
	l.attempted++
	if traced {
		l.spans = append(l.spans, s)
	}
	lat := s.end - s.start
	switch {
	case err == nil:
		l.ok++
		l.wins[win].add(lat)
		if budget == 0 || lat <= int64(budget) {
			l.good++
		}
	case errors.Is(err, errWrongOutput):
		l.wrong++
		if l.firstErr == nil {
			l.firstErr = err
		}
	default:
		k := classify(err)
		l.kinds[k]++
		if k == kindOther && l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// closedOp runs caller c's n-th operation and reports which public call it
// made, the call's budget (0 for none) and its error.
type closedOp func(c, n int) (spanKind, time.Duration, error)

// closedLoop runs callers closed-loop until end: each caller issues its
// next call only when the previous one returned. Calls are recorded into
// windows of equal length counted from start. seq carries each caller's
// operation counter across warm-up and window, so per-caller input
// sequences continue rather than restart.
func closedLoop(op closedOp, seq []int, start time.Time, end time.Time, windows int, traced bool, spanCap int) []*lane {
	lanes := make([]*lane, len(seq))
	winLen := end.Sub(start) / time.Duration(windows)
	var wg sync.WaitGroup
	for c := range seq {
		lanes[c] = newLane(windows, spanCap)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := lanes[c]
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				k, budget, err := op(c, seq[c])
				seq[c]++
				t1 := time.Now()
				win := min(int(t0.Sub(start)/winLen), windows-1)
				l.record(win, benchSpan{start: t0.UnixNano(), end: t1.UnixNano(), kind: k, ok: err == nil}, budget, err, traced)
			}
		}()
	}
	wg.Wait()
	return lanes
}

// memWindow brackets a measured window with the allocation and GC counters.
type memWindow struct {
	mallocs, numGC uint64
	pauseNs        uint64
}

func readMem() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{mallocs: ms.Mallocs, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

func (a memWindow) sub(b memWindow) memWindow {
	return memWindow{mallocs: a.mallocs - b.mallocs, numGC: a.numGC - b.numGC, pauseNs: a.pauseNs - b.pauseNs}
}

// background runs fn until stop closes. The returned halt, called once,
// closes stop and waits for fn to return.
func background(fn func(stop <-chan struct{})) (halt func()) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(stop)
	}()
	return func() {
		close(stop)
		<-done
	}
}

// sleepOrStop sleeps for d and reports false when stop closed first.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

var bg = context.Background()
