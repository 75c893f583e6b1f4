// Per-peer-link frame coalescing: the egress queue gathers outbound call
// and reply frames while the link's writer is busy and packs them into one
// write — a lone frame plain, several as one wire.FrameBatch — cutting the
// syscall count per remote call from one write each way to one write per
// batch. Batching is group-commit style — no artificial delay: a flush
// starts as soon as the writer is free, and whatever queued during the
// previous write rides the next batch. Every peer link has an egress.
package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/connector"
	"repro/internal/wire"
)

// Batch caps: a flush is forced mid-batch when the assembled frame reaches
// either bound, keeping worst-case reply latency and peer memory in check.
const (
	batchMaxBytes  = 64 << 10
	batchMaxFrames = 128
)

// egressItem is one queued outbound frame. Calls carry the caller's
// absolute deadline so the relative budget on the wire is stamped at write
// time — a call that sat in the queue ships with its true remaining credit,
// and one that expired there fails locally without crossing the wire.
type egressItem struct {
	kind         wire.FrameType
	call         wire.Call
	reply        wire.Reply
	cancel       wire.Cancel
	streamOpen   wire.StreamOpen
	streamChunk  wire.StreamChunk
	streamCredit wire.StreamCredit
	streamEnd    wire.StreamEnd
	replicate    wire.Replicate
	replicateAck wire.ReplicateAck
	absDeadline  int64 // unix nanos, 0 = none; calls and stream opens only
}

// appendBody appends the item's frame body to dst.
func (it *egressItem) appendBody(dst []byte) ([]byte, error) {
	switch it.kind {
	case wire.FrameCall:
		return wire.AppendCall(dst, it.call)
	case wire.FrameReply:
		return wire.AppendReply(dst, it.reply)
	case wire.FrameCancel:
		return wire.AppendCancel(dst, it.cancel), nil
	case wire.FrameStreamOpen:
		return wire.AppendStreamOpen(dst, it.streamOpen)
	case wire.FrameStreamChunk:
		return wire.AppendStreamChunk(dst, it.streamChunk)
	case wire.FrameStreamCredit:
		return wire.AppendStreamCredit(dst, it.streamCredit), nil
	case wire.FrameStreamEnd:
		return wire.AppendStreamEnd(dst, it.streamEnd), nil
	case wire.FrameReplicate:
		return wire.AppendReplicate(dst, it.replicate), nil
	default:
		return wire.AppendReplicateAck(dst, it.replicateAck), nil
	}
}

// stampDeadline sets a call's or stream open's relative budget from its
// absolute deadline and reports false when that deadline has passed.
func (it *egressItem) stampDeadline(now int64) bool {
	if it.absDeadline == 0 {
		return true
	}
	rem := it.absDeadline - now
	if it.kind == wire.FrameCall {
		it.call.DeadlineNanos = rem
	} else {
		it.streamOpen.DeadlineNanos = rem
	}
	return rem > 0
}

// egress is the coalescing writer of one peer link.
type egress struct {
	p *peer

	mu    sync.Mutex
	q     []egressItem
	spare []egressItem // recycled backing array for q

	wake chan struct{} // cap 1: coalesces enqueue signals
}

func newEgress(p *peer) *egress {
	return &egress{p: p, wake: make(chan struct{}, 1)}
}

// enqueueCall queues an outbound remote call.
func (e *egress) enqueueCall(c wire.Call, absDeadline int64) {
	e.enqueue(egressItem{kind: wire.FrameCall, call: c, absDeadline: absDeadline})
}

// enqueueReply queues an outbound reply.
func (e *egress) enqueueReply(r wire.Reply) {
	e.enqueue(egressItem{kind: wire.FrameReply, reply: r})
}

// enqueueCancel queues an outbound call revocation. Cancels coalesce with
// the rest of the traffic; a cancel overtaking its own call is impossible
// because the queue preserves enqueue order.
func (e *egress) enqueueCancel(c wire.Cancel) {
	e.enqueue(egressItem{kind: wire.FrameCancel, cancel: c})
}

// enqueueStreamOpen queues an outbound stream open. Like a call it carries
// the caller's absolute deadline, so the relative budget is stamped at write
// time and an open that expired in the queue fails locally.
func (e *egress) enqueueStreamOpen(o wire.StreamOpen, absDeadline int64) {
	e.enqueue(egressItem{kind: wire.FrameStreamOpen, streamOpen: o, absDeadline: absDeadline})
}

// enqueueStreamChunk queues one outbound stream item. Chunks coalesce with
// calls and replies into the same batch writes — this is what collapses a
// stream's per-item wire cost to a fraction of a syscall.
func (e *egress) enqueueStreamChunk(c wire.StreamChunk) {
	e.enqueue(egressItem{kind: wire.FrameStreamChunk, streamChunk: c})
}

// enqueueStreamCredit queues one outbound credit grant.
func (e *egress) enqueueStreamCredit(c wire.StreamCredit) {
	e.enqueue(egressItem{kind: wire.FrameStreamCredit, streamCredit: c})
}

// enqueueStreamEnd queues one outbound terminal end frame. The queue
// preserves enqueue order, so an end can never overtake its own chunks.
func (e *egress) enqueueStreamEnd(s wire.StreamEnd) {
	e.enqueue(egressItem{kind: wire.FrameStreamEnd, streamEnd: s})
}

// enqueueReplicate queues one outbound warm-standby snapshot. Replication
// traffic coalesces with calls and replies — shipping a snapshot costs a
// fraction of a syscall when the link is busy.
func (e *egress) enqueueReplicate(r wire.Replicate) {
	e.enqueue(egressItem{kind: wire.FrameReplicate, replicate: r})
}

// enqueueReplicateAck queues one outbound replication acknowledgement.
func (e *egress) enqueueReplicateAck(a wire.ReplicateAck) {
	e.enqueue(egressItem{kind: wire.FrameReplicateAck, replicateAck: a})
}

func (e *egress) enqueue(it egressItem) {
	e.mu.Lock()
	e.q = append(e.q, it)
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// flushLoop drains the queue until the node closes or the link dies. Each
// wake-up swaps the queue against an empty recycled array and writes the
// whole swath in one write (more at the batch caps); anything enqueued during that write is picked
// up by the next inner iteration without waiting for another wake.
func (e *egress) flushLoop(ctx context.Context) {
	defer e.p.n.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-e.wake:
		}
		for {
			e.mu.Lock()
			batch := e.q
			e.q = e.spare[:0]
			// Detach spare immediately: the array just handed to e.q now
			// belongs to producers, and spare must never alias it — on the
			// next swap it would hand writeBatch and the producers the same
			// backing array.
			e.spare = nil
			e.mu.Unlock()
			if len(batch) == 0 {
				e.spare = batch[:0] // recycle the drained array for the next swap
				break
			}
			e.writeBatch(batch)
			e.spare = batch[:0]
		}
		if e.p.down.Load() {
			return
		}
	}
}

// errQueueExpired marks a call or stream open whose deadline passed while it
// sat in the egress queue.
var errQueueExpired = errors.New("deadline exceeded in egress queue")

// writeBatch ships one swath of queued frames through the link's encoder: a
// lone frame goes out plain, more as FrameBatch writes force-flushed at the
// batch caps. Deadline credit is re-derived per call here; an expired call
// or a frame the codec cannot ship is settled locally by settle once the
// writer is released, and only a transport error takes the link down.
func (e *egress) writeBatch(items []egressItem) {
	p := e.p
	now := time.Now().UnixNano()
	var failed []egressFailure
	p.encMu.Lock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	enc := p.enc
	writes := enc.Writes()
	var werr error
	for i := range items {
		it := &items[i]
		if !it.stampDeadline(now) {
			failed = append(failed, egressFailure{it, errQueueExpired})
			continue
		}
		if err := enc.Add(it.kind, it.appendBody); err != nil {
			if !wireDataError(err) {
				werr = err
				break
			}
			failed = append(failed, egressFailure{it, err})
			continue
		}
		p.countBatchFrame()
		if frames, bytes := enc.Pending(); bytes >= batchMaxBytes || frames >= batchMaxFrames {
			if werr = enc.Flush(); werr != nil {
				break
			}
		}
	}
	if werr == nil {
		werr = enc.Flush()
	}
	p.countBatchWrites(uint64(enc.Writes() - writes))
	p.encMu.Unlock()

	for _, f := range failed {
		e.settle(f.it, f.err)
	}
	if werr != nil {
		p.n.peerDown(p, "egress write: "+werr.Error())
	}
}

// egressFailure is a queued frame that did not go out, with the reason.
type egressFailure struct {
	it  *egressItem
	err error
}

// settle answers locally for a frame that never crossed the wire — expired
// in the queue (errQueueExpired) or not encodable — so the link stays up.
func (e *egress) settle(it *egressItem, err error) {
	p := e.p
	kind, why := connector.ErrKindApp, "arguments not wire-encodable"
	if err == errQueueExpired {
		p.n.shedGateway.Add(1)
		kind, why = connector.ErrKindDeadline, err.Error()
	}
	switch it.kind {
	case wire.FrameCall:
		c := it.call
		if cb, ok := p.takePending(c.Corr); ok {
			cb(wire.Reply{Corr: c.Corr, Kind: uint8(kind), Err: "cluster: " + c.Component + "." + c.Op + ": " + why})
		}
	case wire.FrameStreamOpen:
		o := it.streamOpen
		p.n.endStreamIn(p, o.Corr, kind, "cluster: "+o.Component+"."+o.Op+": "+why)
	case wire.FrameStreamChunk:
		p.abortRelayEncode(it.streamChunk.Corr)
	case wire.FrameReply:
		// Results the value codec cannot ship become an error reply; it
		// rides the next write.
		e.enqueueReply(wire.Reply{Corr: it.reply.Corr, Err: "cluster: " + err.Error(), Kind: wire.KindAppError})
	case wire.FrameReplicate:
		// The replicator's next round retries, and ack lag shows the gap.
		p.n.opts.Logf("cluster %s: replicate %s seq=%d to %s dropped: %v",
			p.n.id, it.replicate.Component, it.replicate.Seq, p.id, err)
	default:
		p.n.opts.Logf("cluster %s: %v frame to %s dropped: %v", p.n.id, it.kind, p.id, err)
	}
}

// wireDataError reports whether err is a per-frame encoding problem (bad
// value type, oversized body) rather than a transport failure: the frame is
// dropped and answered locally, the link stays up.
func wireDataError(err error) bool {
	return errors.Is(err, wire.ErrUnsupportedType) || errors.Is(err, wire.ErrFrameTooBig)
}
