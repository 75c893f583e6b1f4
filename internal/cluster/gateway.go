package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// learnOwner records that a peer hosts comp and makes sure a gateway serves
// its address locally (unless we host it ourselves).
func (n *Node) learnOwner(comp, peerID string) {
	if n.sys.HasComponent(comp) {
		return
	}
	n.mu.Lock()
	n.owners[comp] = peerID
	n.ownersAt[comp] = time.Now()
	n.mu.Unlock()
	if err := n.attachGateway(comp); err != nil {
		n.opts.Logf("cluster %s: gateway for %s: %v", n.id, comp, err)
	}
}

// attachGateway occupies comp's canonical address with a forwarding
// endpoint, then flushes any requests that parked there while the address
// had no endpoint. Idempotent: an existing gateway (or a locally hosted
// component holding the address) leaves the routing as is.
func (n *Node) attachGateway(comp string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.gateways[comp] != nil {
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()

	addr := core.ComponentAddress(comp)
	ep, err := n.sys.Bus().Attach(addr, gatewayMailbox)
	if err != nil {
		// Address taken: the component is local (or a gateway raced us in).
		if errors.Is(err, bus.ErrAddressTaken) {
			return nil
		}
		return err
	}
	// Deadlined requests queue in the gateway mailbox's EDF lane and are
	// shed there when they expire before the loop gets to them; count those
	// sheds into the node's edge accounting.
	ep.SetExpiredFunc(func(bus.Message) { n.shedGateway.Add(1) })
	ctx, cancel := context.WithCancel(n.ctx)
	g := &gateway{comp: comp, ep: ep, cancel: cancel}
	n.mu.Lock()
	if n.closed || n.gateways[comp] != nil {
		n.mu.Unlock()
		cancel()
		n.sys.Bus().Detach(addr)
		return nil
	}
	n.gateways[comp] = g
	n.mu.Unlock()

	n.sys.RegisterRemote(comp)
	n.wg.Add(1)
	go n.gatewayLoop(g, ctx)
	_, _ = n.sys.Bus().Resume(addr)
	return nil
}

// removeGateway detaches comp's forwarding endpoint; it reports whether one
// existed. Messages arriving while the address is endpoint-less park on the
// route and are recovered by the next attach+resume.
func (n *Node) removeGateway(comp string) bool {
	n.mu.Lock()
	g := n.gateways[comp]
	delete(n.gateways, comp)
	n.mu.Unlock()
	if g == nil {
		return false
	}
	n.detachGateway(g)
	return true
}

// detachGateway tears one gateway endpoint down without losing a message:
// the address is paused first (a detached, unpaused address fails sends
// with ErrUnknownDst, while a paused one parks them), and requests still
// queued in the gateway's mailbox are re-sent so they park on the paused
// route alongside the rest — the attach+resume that follows (real endpoint
// or re-attached gateway) recovers every one.
func (n *Node) detachGateway(g *gateway) {
	addr := core.ComponentAddress(g.comp)
	n.sys.Bus().PauseRequests(addr)
	g.cancel()
	n.sys.Bus().Detach(addr)
	// Drain what the loop never got to. Detach keeps queued messages
	// readable; a message the loop popped concurrently is forwarded, never
	// dropped, so this split loses nothing either way.
	for {
		m, ok := g.ep.TryReceive()
		if !ok {
			return
		}
		if m.Kind == bus.Request {
			_ = n.sys.Bus().Send(m)
		}
	}
}

// gatewayLoop forwards every request arriving at the gateway's address over
// the owning peer's link.
func (n *Node) gatewayLoop(g *gateway, ctx context.Context) {
	defer n.wg.Done()
	for {
		m, err := g.ep.Receive(ctx)
		if err != nil {
			return
		}
		if m.Kind == bus.Control && m.Op == bus.OpCancel {
			// A caller gave up on a forwarded call or stream: revoke it on
			// the peer.
			n.cancelForward(m)
			continue
		}
		if m.Kind == bus.Control && m.Op == bus.OpStreamCredit {
			// A consumer replenished its window: relay the grant to the
			// producer across the link.
			n.creditForward(m)
			continue
		}
		if m.Kind != bus.Request {
			continue // stray replies/events toward a remote address are meaningless here
		}
		if open, ok := m.Payload.(connector.StreamOpenPayload); ok {
			n.forwardStreamOpen(g.comp, m, open)
			continue
		}
		n.forward(g.comp, m)
	}
}

// forward ships one bus request over the wire and arranges for the peer's
// reply to be re-emitted as a bus reply toward the original caller — from
// the caller's perspective the remote component answered from its usual
// address.
func (n *Node) forward(comp string, m bus.Message) {
	p := n.livePeer(n.Owner(comp))
	if p == nil {
		n.replyError(comp, m, fmt.Sprintf("cluster: no live peer hosts %s", comp))
		return
	}
	// Deadline propagation: the egress writer ships the remaining budget
	// (relative, so peer clocks need not agree), stamped at write time. A
	// request that expired while queued at the gateway is answered here —
	// crossing the wire to be rejected on the other side would waste a round
	// trip on a caller that already left.
	if m.Deadline != 0 && time.Now().UnixNano() >= m.Deadline {
		n.shedGateway.Add(1)
		n.replyErrorKind(comp, m, connector.ErrKindDeadline,
			fmt.Sprintf("cluster: %s.%s: deadline exceeded at gateway", comp, m.Op))
		return
	}
	c := wire.Call{Component: comp, Op: m.Op}
	switch pl := m.Payload.(type) {
	case connector.CallPayload:
		c.Principal, c.Args = pl.Principal, pl.Args
	case connector.TypedCall:
		// Typed fast path: splice the handle's preencoded argument bytes
		// into the frame verbatim — no []any boxing at the gateway.
		raw, aerr := pl.AppendArgs(nil)
		if aerr != nil {
			n.replyErrorKind(comp, m, connector.ErrKindApp,
				fmt.Sprintf("cluster: %s.%s: %v", comp, m.Op, aerr))
			return
		}
		c.Principal, c.RawArgs = pl.Principal(), raw
	}
	// Trace propagation: the gateway opens a forward span parented under the
	// caller's span and ships its own id as the new parent, so the remote
	// serve span hangs off the gateway hop.
	var fwdStart int64
	var fwdSpan uint32
	trace, parentSpan := m.Trace, telemetry.SpanID(m.Span)
	if trace != 0 {
		fwdSpan = telemetry.NextSpanID()
		c.Trace = trace
		c.Span = telemetry.PackSpan(fwdSpan, parentSpan)
		fwdStart = time.Now().UnixNano()
	}
	corr := p.corr.Add(1)
	c.Corr = corr
	src, srcCorr, op := m.Src, m.Corr, m.Op
	key := callKey{src: src, corr: srcCorr}
	n.imu.Lock()
	n.inflight[key] = remoteRef{p: p, corr: corr}
	n.imu.Unlock()
	p.addPending(corr, func(rep wire.Reply) {
		// Untrack first: the callback fires on every completion path (reply,
		// egress-expiry, link failure), and a cancel arriving after that must
		// find nothing to revoke.
		n.imu.Lock()
		delete(n.inflight, key)
		n.imu.Unlock()
		if fwdStart != 0 {
			n.sys.Recorder().Record(telemetry.Span{
				Trace: trace, ID: fwdSpan, Parent: parentSpan,
				Start: fwdStart, End: time.Now().UnixNano(),
				Op: op, Comp: comp, Src: n.id, Dst: p.id,
				Kind: telemetry.KindForward, Outcome: telemetry.Outcome(rep.Kind),
			})
		}
		if serr := n.sys.Bus().Send(bus.Message{
			Kind: bus.Reply, Op: op,
			Payload: connector.ReplyPayload{Results: rep.Results, Err: rep.Err,
				Kind: connector.ErrKind(rep.Kind)},
			Src: core.ComponentAddress(comp), Dst: src, Corr: srcCorr,
		}); serr != nil {
			n.opts.Logf("cluster %s: dropped reply corr=%d: %v", n.id, srcCorr, serr)
		}
	})
	p.egress.enqueueCall(c, m.Deadline)
}

// cancelForward revokes a forwarded call whose caller gave up (context
// cancel or deadline expiry). The caller-side waiter entry is dropped
// immediately and a FrameCancel rides to the callee so its serving slot and
// waiter table are reclaimed right away too. No reply flows back: by the
// time a cancel reaches the gateway the caller has already settled.
func (n *Node) cancelForward(m bus.Message) {
	key := callKey{src: m.Src, corr: m.Corr}
	n.imu.Lock()
	ref, ok := n.inflight[key]
	if ok {
		delete(n.inflight, key)
	}
	n.imu.Unlock()
	if !ok {
		return // already replied, expired in egress, or never forwarded
	}
	ref.p.takePending(ref.corr)  // drop the continuation, suppress the late reply
	ref.p.takeStreamIn(ref.corr) // and the stream record: late chunks find nothing
	if !ref.p.down.Load() {
		ref.p.egress.enqueueCancel(wire.Cancel{Corr: ref.corr})
	}
}

// replyError answers a request locally with an error payload.
func (n *Node) replyError(comp string, m bus.Message, reason string) {
	n.replyErrorKind(comp, m, connector.ErrKindApp, reason)
}

// replyErrorKind answers a request locally with a typed error payload so
// typed handles map it back to a sentinel without string matching.
func (n *Node) replyErrorKind(comp string, m bus.Message, kind connector.ErrKind, reason string) {
	_ = n.sys.Bus().Send(bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Payload: connector.ReplyPayload{Err: reason, Kind: kind},
		Src:     core.ComponentAddress(comp), Dst: m.Src, Corr: m.Corr,
	})
}

// livePeer returns the linked, not-down peer with the given id, or nil.
func (n *Node) livePeer(id string) *peer {
	if id == "" {
		return nil
	}
	n.mu.Lock()
	p := n.peers[id]
	n.mu.Unlock()
	if p == nil || p.down.Load() {
		return nil
	}
	return p
}
