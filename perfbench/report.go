package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	aas "repro"
)

// metric is one reported number. Only metrics with inJSON set go into the
// result line; the others are table-only context: failure kinds and
// figures that exist on one workload only, since every workload reports
// the same JSON metrics that BENCHMARK.json declares.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int    // samples behind the value, when it is a statistic
	note   string // how to read it
	inJSON bool
}

type report struct {
	attempted, failed uint64
	lines             []metric
	notes             []string
}

func (r *report) put(name string, v float64, unit string, n int, note string) {
	r.lines = append(r.lines, metric{name: name, value: v, unit: unit, n: n, note: note, inJSON: true})
}

func (r *report) info(name string, v float64, unit string, n int, note string) {
	r.lines = append(r.lines, metric{name: name, value: v, unit: unit, n: n, note: note})
}

// print writes the table, then the JSON result as the last line.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	vals := map[string]any{}
	for _, m := range r.lines {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		mark := " "
		if !m.inJSON {
			mark = "~"
		}
		fmt.Fprintf(w, "%s %-32s %14.6g %-6s %-10s %s\n", mark, m.name, m.value, m.unit, n, m.note)
		if m.inJSON {
			vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   vals,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	fmt.Fprintln(w, string(out))
}

const (
	us = 1e3
	ms = 1e6
)

// windowMedian is the median over windows of a per-window statistic,
// skipping windows where it is not reportable. ok is false when fewer than
// half the windows could report it.
func windowMedian(wins []hist, f func(h *hist) (float64, bool)) (v float64, n int, ok bool) {
	var vals []float64
	for i := range wins {
		if x, good := f(&wins[i]); good {
			vals = append(vals, x)
			n += wins[i].n
		}
	}
	return median(vals), n, 2*len(vals) > len(wins)
}

func quantileOf(q float64) func(h *hist) (float64, bool) {
	return func(h *hist) (float64, bool) {
		v, ok := h.quantile(q)
		return float64(v), ok
	}
}

// endToEnd reports the end-to-end metrics of an untraced run. The closed
// loops' rate and latency figures are medians over the run's windows.
func endToEnd(o *outcome) (*report, error) {
	r := &report{attempted: o.attempted, failed: o.wrong + o.kinds[kindOther]}
	r.notes = o.notes
	r.put("setup_s", median(o.setup), "s", len(o.setup), "median assembly to first successful call")
	open := o.rates != nil
	var all hist
	for i := range o.lat {
		all.merge(&o.lat[i])
	}
	if open {
		r.put("calls_per_s", float64(o.ok)/o.seconds, "1/s", int(o.ok), "successful calls over the window, both rates")
		p50, ok50 := all.quantile(0.5)
		p99, ok99 := all.quantile(0.99)
		if !ok50 || !ok99 {
			return nil, fmt.Errorf("only %d successful calls: too few for p99", all.n)
		}
		r.put("p50_us", float64(p50)/us, "us", all.n, "from due time")
		r.put("tail_us", float64(p99)/us, "us", all.n, "p99 from due time")
		r.info("p99_us", float64(p99)/us, "us", all.n, "same as tail_us")
	} else {
		winLen := o.seconds / float64(len(o.lat))
		rate, n, _ := windowMedian(o.lat, func(h *hist) (float64, bool) { return float64(h.n) / winLen, true })
		p50, _, ok50 := windowMedian(o.lat, quantileOf(0.5))
		tail, nTail, okTail := windowMedian(o.lat, quantileOf(0.999))
		note := "p99.9, median over windows"
		if !okTail {
			// Too few calls per window: fall back to the whole window.
			v, ok := all.quantile(0.999)
			tail, nTail, okTail, note = float64(v), all.n, ok, "p99.9 over the whole window"
		}
		if !ok50 || !okTail {
			return nil, fmt.Errorf("only %d successful calls: too few for p99.9; raise --seconds", n)
		}
		r.put("calls_per_s", rate, "1/s", n, "median over windows")
		r.put("p50_us", p50/us, "us", n, "median over windows")
		r.put("tail_us", tail/us, "us", nTail, note)
		r.info("p999_us", tail/us, "us", nTail, "same as tail_us")
		r.info("good_per_s", float64(o.good)/o.seconds, "1/s", int(o.good), "within budget, whole window")
		var per []string
		for i := range o.lat {
			m, _ := o.lat[i].quantile(0.5)
			per = append(per, fmt.Sprintf("%.0f/s p50=%.1fus", float64(o.lat[i].n)/winLen, float64(m)/us))
		}
		r.notes = append(r.notes, "windows: "+strings.Join(per, " | "))
	}
	r.put("ok_ratio", float64(o.good)/float64(o.attempted), "ratio", int(o.attempted), "succeeded within budget / attempted")
	r.info("failed_ratio", 1-float64(o.good)/float64(o.attempted), "ratio", int(o.attempted), "refusals and budget misses count")
	r.put("allocs_per_call", float64(o.mem.mallocs)/float64(o.ok), "count", int(o.ok), "process mallocs / successful calls")
	var peaks []float64
	for _, p := range o.mon.heapPeaks {
		peaks = append(peaks, float64(p)/(1<<20))
	}
	r.put("heap_mb", median(peaks), "MB", len(peaks), "peak heap in use, median over windows")
	for k, n := range o.kinds {
		if n > 0 {
			r.info("errors."+kindNames[k], float64(n), "count", 0, "")
		}
	}
	for _, rr := range o.rates {
		tag := fmt.Sprintf("rate_%.0f.", rr.rate)
		r.info(tag+"good_per_s", float64(rr.good)/rr.seconds, "1/s", int(rr.attempted), "within budget from due time")
		if p, ok := rr.lat.quantile(0.99); ok {
			r.info(tag+"p99_us", float64(p)/us, "us", rr.lat.n, "from due time")
		}
		r.info(tag+"refused", float64(rr.kinds[kindOverloaded]), "count", 0, "")
	}
	if len(o.actions) > 0 {
		d := durations(o.actions, func(benchSpan) bool { return true })
		p50, _ := quantile(d, 0.5)
		r.info("reconfig_p50_ms", float64(p50)/ms, "ms", len(d), "controller action latency")
		if p99, ok := quantile(d, 0.99); ok {
			r.info("reconfig_p99_ms", float64(p99)/ms, "ms", len(d), "controller action latency")
		}
	}
	return r, nil
}

// durations are the sorted lengths of the spans keep selects.
func durations(spans []benchSpan, keep func(benchSpan) bool) []int64 {
	var d []int64
	for _, s := range spans {
		if keep(s) {
			d = append(d, s.end-s.start)
		}
	}
	slices.Sort(d)
	return d
}

func sumTelemetry(snaps []aas.Telemetry) (t aas.Telemetry) {
	for _, s := range snaps {
		t.Bus.Sent += s.Bus.Sent
		t.Bus.Delivered += s.Bus.Delivered
		t.Bus.Dropped += s.Bus.Dropped
		t.Spans.Recorded += s.Spans.Recorded
		t.Spans.Lost += s.Spans.Lost
		t.Events.Dropped += s.Events.Dropped
		t.GatewayShed += s.GatewayShed
	}
	return t
}

// q reports the q-quantile of sorted in unit, or 0 when it is not
// reportable (no samples, or fewer than minBeyond beyond it).
func q(sorted []int64, quant, scale float64) float64 {
	if v, ok := quantile(sorted, quant); ok {
		return float64(v) / scale
	}
	return 0
}

// qh is q for a histogram.
func qh(h *hist, quant, scale float64) float64 {
	if v, ok := h.quantile(quant); ok {
		return float64(v) / scale
	}
	return 0
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer reports the per-layer metrics of a traced run; plain is the
// untraced run of the same workload, the base of trace.overhead_ratio.
// A layer the workload does not exercise reports 0, as does a tail
// percentile with fewer than minBeyond samples beyond it.
func perLayer(plain, t *outcome) *report {
	r := &report{attempted: t.attempted, failed: t.wrong + t.kinds[kindOther]}
	r.notes = t.notes
	ls := analyseSpans(t.progSpans)
	r.put("core.client_self_us_p50", q(ls.clientSelf, 0.5, us), "us", len(ls.clientSelf), "client span minus its children")
	r.put("core.client_self_us_p99", q(ls.clientSelf, 0.99, us), "us", len(ls.clientSelf), "")
	r.put("core.pending_calls_end", float64(t.pendingEnd), "count", 0, "must be 0")
	ov := overlapping(t.calls, t.actions)
	r.put("core.call_overlap_p99_us", q(ov, 0.99, us), "us", len(ov), "calls overlapping a controller action")

	is := func(k spanKind) func(benchSpan) bool { return func(s benchSpan) bool { return s.kind == k && s.ok } }
	mig := durations(t.actions, is(spanMigrate))
	swp := durations(t.actions, is(spanSwap))
	rf := durations(t.actions, is(spanReplaceFilters))
	r.put("core.swap_ms_p50", q(swp, 0.5, ms), "ms", len(swp), "SwapImplementation with state transfer")
	r.put("core.replace_filters_us_p50", q(rf, 0.5, us), "us", len(rf), "ReplaceFilters on Front.get")

	a := t.mon.adm
	r.put("qos.admitted", float64(a.admitted), "count", 0, "admission ledgers over the window")
	r.put("qos.rejected", float64(a.rejected), "count", 0, "")
	r.put("qos.reject_ratio", ratio(a.rejected, a.admitted+a.rejected), "ratio", int(a.admitted+a.rejected), "")
	est := a.estimate["Store"]
	if e, ok := a.estimate["Busy"]; ok {
		est = e
	}
	r.put("qos.estimate_us", est/us, "us", 0, "callee's service EWMA at the end")

	b0, b1 := sumTelemetry(t.before), sumTelemetry(t.after)
	r.put("bus.sent", float64(b1.Bus.Sent-b0.Bus.Sent), "count", 0, "")
	r.put("bus.delivered", float64(b1.Bus.Delivered-b0.Bus.Delivered), "count", 0, "")
	r.put("bus.dropped", float64(b1.Bus.Dropped-b0.Bus.Dropped), "count", 0, "")
	r.put("bus.held_peak", float64(t.mon.heldPeak), "count", 0, "sampled every 200 ms")
	r.put("bus.queue_us_p50", q(ls.queue, 0.5, us), "us", len(ls.queue), "server span queue wait")
	r.put("bus.queue_us_p99", q(ls.queue, 0.99, us), "us", len(ls.queue), "")
	r.put("container.service_us_p50", q(ls.service, 0.5, us), "us", len(ls.service), "callee server span (Store, Busy)")
	r.put("container.service_us_p99", q(ls.service, 0.99, us), "us", len(ls.service), "")
	r.put("connector.mediation_self_us_p50", q(ls.mediation, 0.5, us), "us", len(ls.mediation), "Front server span minus its children")

	r.put("cluster.forward_self_us_p50", q(ls.forwardSelf, 0.5, us), "us", len(ls.forwardSelf), "forward span minus remote server span")
	r.put("cluster.forward_self_us_p99", q(ls.forwardSelf, 0.99, us), "us", len(ls.forwardSelf), "")
	writes, frames := t.batchAfter[0]-t.batchBefore[0], t.batchAfter[1]-t.batchBefore[1]
	r.put("cluster.frames_per_write", ratio(frames, writes), "ratio", 0, fmt.Sprintf("%d frames / %d writes", frames, writes))
	r.put("cluster.batch_writes", float64(writes), "count", 0, "")
	r.put("cluster.batch_frames", float64(frames), "count", 0, "")
	r.put("cluster.writes_per_call", ratio(writes, t.ok), "ratio", 0, fmt.Sprintf("%d writes / %d calls", writes, t.ok))
	r.put("cluster.gateway_shed", float64(b1.GatewayShed-b0.GatewayShed), "count", 0, "")
	r.put("cluster.migrate_ms_p50", q(mig, 0.5, ms), "ms", len(mig), "live Migrate of Store")
	r.put("cluster.migrate_ms_p99", q(mig, 0.99, ms), "ms", len(mig), "")

	snap := durations(t.mon.snapshots, func(benchSpan) bool { return true })
	r.put("telemetry.spans_recorded", float64(b1.Spans.Recorded-b0.Spans.Recorded), "count", 0, "")
	r.put("telemetry.spans_lost", float64(b1.Spans.Lost-b0.Spans.Lost), "count", 0, "must be 0")
	r.put("telemetry.snapshot_us_p50", q(snap, 0.5, us), "us", len(snap), "one node's Telemetry()")
	r.put("events.dropped", float64(b1.Events.Dropped-b0.Events.Dropped), "count", 0, "")

	r.put("runtime.gc_cycles", float64(t.mem.numGC), "count", 0, "")
	r.put("runtime.gc_pause_ms", float64(t.mem.pauseNs)/ms, "ms", 0, "total stop-the-world pause")
	r.put("runtime.goroutines_end", float64(t.goroutines), "count", 0, "after the gates, system still up")

	r.put("loadgen.late_p99_us", qh(&t.late, 0.99, us), "us", t.late.n, "open-loop dispatch behind schedule")
	r.put("loadgen.offered", float64(t.offered), "count", 0, "")
	r.put("trace.overhead_ratio", ratio(t.ok, plain.ok), "ratio", 0,
		fmt.Sprintf("traced %d / untraced %d successful calls", t.ok, plain.ok))
	r.info("trace.program_spans", float64(len(t.progSpans)), "count", 0, "retained spans analysed")
	return r
}
