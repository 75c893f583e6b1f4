// Tests for the egress writer's data-error branches (DESIGN.md §8): a frame
// the codec cannot ship is answered locally and the link stays up, whether
// the frame goes out alone or inside a multi-frame batch.
package cluster

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// startEgressPair links n1 (Front) and n2 (Store) and returns the two ends
// of their link. Encoding a frame near MaxFrame holds the link's writer, and
// so its heartbeats, for a while (far longer under -race); FailAfter is
// generous so the peer does not declare the link dead meanwhile.
func startEgressPair(t *testing.T) (h *Harness, p12, p21 *peer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	h, err := StartHarness(ctx, Spec{
		ADL:       clusterADL,
		Nodes:     []string{"n1", "n2"},
		Placement: map[string]string{"Front": "n1", "Store": "n2"},
		Registry:  testRegistry,
		Cluster: func(string) Options {
			return Options{Heartbeat: 50 * time.Millisecond, FailAfter: 10 * time.Second}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	waitUntil(t, "n1 and n2 to link", func() bool {
		p12, p21 = h.Node("n1").livePeer("n2"), h.Node("n2").livePeer("n1")
		return p12 != nil && p21 != nil
	})
	return h, p12, p21
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// queued reports the length of an egress queue.
func queued(e *egress) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.q)
}

// oneSwath makes the want frames fill enqueues on p leave in one write: it
// holds the link's writer, lets the flush loop take a filler cancel (the
// callee ignores an unknown correlation) and block on the writer, enqueues
// the frames behind it and releases the writer. One frame goes out plain,
// several as one batch.
func oneSwath(t *testing.T, p *peer, want int, fill func()) {
	t.Helper()
	p.encMu.Lock()
	p.egress.enqueueCancel(wire.Cancel{Corr: math.MaxUint64})
	waitUntil(t, "the flush loop to take the filler", func() bool { return queued(p.egress) == 0 })
	fill()
	n := queued(p.egress)
	p.encMu.Unlock()
	if n != want {
		t.Fatalf("%d frames queued behind the filler, want %d", n, want)
	}
}

// pendingCall registers a continuation for a fresh correlation on p and
// returns it with the channel the reply lands on.
func pendingCall(p *peer) (uint64, chan wire.Reply) {
	ch := make(chan wire.Reply, 1)
	corr := p.corr.Add(1)
	p.addPending(corr, func(r wire.Reply) { ch <- r })
	return corr, ch
}

// getCall is a Store.get call for corr with the given arguments.
func getCall(corr uint64, args ...any) wire.Call {
	return wire.Call{Corr: corr, Component: "Store", Op: "get", Args: args}
}

func awaitReply(t *testing.T, what string, ch chan wire.Reply) wire.Reply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no reply", what)
		return wire.Reply{}
	}
}

// wantEcho checks a reply to getCall(corr, key).
func wantEcho(t *testing.T, what string, ch chan wire.Reply, key string) {
	t.Helper()
	if r := awaitReply(t, what, ch); r.Err != "" || len(r.Results) != 1 || r.Results[0] != key {
		t.Fatalf("%s: %+v, want the echo of %q", what, r, key)
	}
}

// wantLinkUp checks the link survived and still carries a normal call.
func wantLinkUp(t *testing.T, h *Harness, p12 *peer) {
	t.Helper()
	if p12.down.Load() || h.Node("n1").livePeer("n2") != p12 {
		t.Fatal("the link went down")
	}
	out, err := h.System("n1").Client("Store").Call(context.Background(), "get", "after")
	if err != nil || len(out) != 1 || out[0] != "after" {
		t.Fatalf("call after the data error: %v %v", out, err)
	}
}

// TestClusterEgressDataErrors pins what the egress writer does with a frame
// the value codec cannot ship, as a lone write and inside a batch: a call
// with a non-encodable argument fails with "not wire-encodable", a reply
// with non-encodable results becomes an app-kind error reply, and neither
// takes the link down.
func TestClusterEgressDataErrors(t *testing.T) {
	h, p12, p21 := startEgressPair(t)
	notEncodable := make(chan int)

	wantArgsError := func(what string, ch chan wire.Reply) {
		t.Helper()
		if r := awaitReply(t, what, ch); r.Kind != wire.KindAppError || !strings.Contains(r.Err, "not wire-encodable") {
			t.Fatalf("%s: %+v, want an app-kind \"not wire-encodable\" error", what, r)
		}
	}
	wantResultsError := func(what string, ch chan wire.Reply) {
		t.Helper()
		if r := awaitReply(t, what, ch); r.Kind != wire.KindAppError || r.Err == "" || r.Results != nil {
			t.Fatalf("%s: %+v, want an app-kind error reply", what, r)
		}
	}

	t.Run("call/lone", func(t *testing.T) {
		bad, badCh := pendingCall(p12)
		oneSwath(t, p12, 1, func() { p12.egress.enqueueCall(getCall(bad, notEncodable), 0) })
		wantArgsError("bad call", badCh)
		wantLinkUp(t, h, p12)
	})
	t.Run("call/batched", func(t *testing.T) {
		before, beforeCh := pendingCall(p12)
		bad, badCh := pendingCall(p12)
		after, afterCh := pendingCall(p12)
		oneSwath(t, p12, 3, func() {
			p12.egress.enqueueCall(getCall(before, "before"), 0)
			p12.egress.enqueueCall(getCall(bad, notEncodable), 0)
			p12.egress.enqueueCall(getCall(after, "after"), 0)
		})
		wantArgsError("bad call", badCh)
		wantEcho(t, "call before the bad one", beforeCh, "before")
		wantEcho(t, "call after the bad one", afterCh, "after")
		wantLinkUp(t, h, p12)
	})
	t.Run("reply/lone", func(t *testing.T) {
		bad, badCh := pendingCall(p12)
		oneSwath(t, p21, 1, func() {
			p21.egress.enqueueReply(wire.Reply{Corr: bad, Results: []any{notEncodable}})
		})
		wantResultsError("bad reply", badCh)
		wantLinkUp(t, h, p12)
	})
	t.Run("reply/batched", func(t *testing.T) {
		good, goodCh := pendingCall(p12)
		bad, badCh := pendingCall(p12)
		oneSwath(t, p21, 2, func() {
			p21.egress.enqueueReply(wire.Reply{Corr: good, Results: []any{"good"}})
			p21.egress.enqueueReply(wire.Reply{Corr: bad, Results: []any{notEncodable}})
		})
		wantResultsError("bad reply", badCh)
		wantEcho(t, "good reply", goodCh, "good")
		wantLinkUp(t, h, p12)
	})
}

// TestClusterEgressOversizedFrameInBatch is the regression for one
// over-MaxFrame frame taking down a whole batched write: coalesced with a
// small call, an over-MaxFrame call must fail alone as a data error while
// the small call is answered and the link stays up.
func TestClusterEgressOversizedFrameInBatch(t *testing.T) {
	h, p12, _ := startEgressPair(t)
	small, smallCh := pendingCall(p12)
	big, bigCh := pendingCall(p12)
	bigCall := getCall(big)
	bigCall.RawArgs = make([]byte, wire.MaxFrame)
	p12.egress.writeBatch([]egressItem{
		{kind: wire.FrameCall, call: getCall(small, "small")},
		{kind: wire.FrameCall, call: bigCall},
	})
	wantEcho(t, "small call", smallCh, "small")
	if r := awaitReply(t, "big call", bigCh); r.Kind != wire.KindAppError || !strings.Contains(r.Err, "not wire-encodable") {
		t.Fatalf("big call: %+v, want an app-kind \"not wire-encodable\" error", r)
	}
	wantLinkUp(t, h, p12)
}
