package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	aas "repro"
)

// layerSpans derives per-layer timings from the program's recorded spans:
// self times of client, server and forward spans, and server queue waits.
type layerSpans struct {
	clientSelf, queue, service, mediation, forwardSelf []int64
}

func analyseSpans(spans []aas.Span) layerSpans {
	type key struct {
		trace int64
		id    uint32
	}
	children := map[key][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], interval{s.Start, s.End})
		}
	}
	var l layerSpans
	for _, s := range spans {
		if s.Outcome != aas.SpanOK {
			continue
		}
		kids := children[key{s.Trace, s.ID}]
		self := selfTime(interval{s.Start, s.End}, kids)
		switch s.Kind {
		case aas.SpanClient:
			l.clientSelf = append(l.clientSelf, self)
		case aas.SpanForward:
			l.forwardSelf = append(l.forwardSelf, self)
		case aas.SpanServer:
			l.queue = append(l.queue, s.Queue)
			if s.Comp == "Front" {
				l.mediation = append(l.mediation, self)
			} else {
				l.service = append(l.service, self)
			}
		}
	}
	for _, d := range [][]int64{l.clientSelf, l.queue, l.service, l.mediation, l.forwardSelf} {
		slices.Sort(d)
	}
	return l
}

// overlapping returns the sorted durations of calls that overlapped any
// controller action.
func overlapping(calls, actions []benchSpan) []int64 {
	acts := slices.Clone(actions)
	sort.Slice(acts, func(i, j int) bool { return acts[i].start < acts[j].start })
	// Merge into disjoint intervals so a binary search finds the candidate.
	var merged []interval
	for _, a := range acts {
		if n := len(merged); n > 0 && a.start <= merged[n-1].end {
			merged[n-1].end = max(merged[n-1].end, a.end)
			continue
		}
		merged = append(merged, interval{a.start, a.end})
	}
	var d []int64
	for _, c := range calls {
		// First merged interval ending after the call starts.
		i := sort.Search(len(merged), func(i int) bool { return merged[i].end > c.start })
		if i < len(merged) && merged[i].start < c.end && c.ok {
			d = append(d, c.end-c.start)
		}
	}
	slices.Sort(d)
	return d
}

var spanKindNames = [...]string{
	spanTypedCall:      "TypedClient.Call",
	spanClientCall:     "Client.Call",
	spanMigrate:        "Migrate",
	spanSwap:           "SwapImplementation",
	spanReplaceFilters: "ReplaceFilters",
	spanTelemetry:      "Telemetry",
}

// writeSpans writes a traced run's spans, the benchmark's and the
// program's, as tab-separated lines to dir/<workload>.tsv.
func writeSpans(dir, workload string, o *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "source\tkind\tstart_ns\tend_ns\tok\ttrace\tid\tparent\tqueue_ns\tcomp\top")
	bench := func(spans []benchSpan) {
		for _, s := range spans {
			fmt.Fprintf(w, "bench\t%s\t%d\t%d\t%t\t\t\t\t\t\t\n", spanKindNames[s.kind], s.start, s.end, s.ok)
		}
	}
	bench(o.calls)
	bench(o.actions)
	bench(o.mon.snapshots)
	for _, s := range o.progSpans {
		fmt.Fprintf(w, "program\t%d\t%d\t%d\t%t\t%d\t%d\t%d\t%d\t%s\t%s\n",
			s.Kind, s.Start, s.End, s.Outcome == aas.SpanOK, s.Trace, s.ID, s.Parent, s.Queue, s.Comp, s.Op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
