// Per-peer-link frame coalescing: the egress queue gathers outbound call
// and reply frames while the link's writer is busy and packs them into one
// wire.FrameBatch write, cutting the syscall count per remote call from one
// write each way to one write per batch. Batching is group-commit style —
// no artificial delay: a flush starts as soon as the writer is free, and
// whatever queued during the previous write rides the next batch. Every
// peer link has an egress.
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
	kind         egressKind
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

// egressKind discriminates the frame an egressItem carries.
type egressKind uint8

const (
	egressCall egressKind = iota
	egressReply
	egressCancel
	egressStreamOpen
	egressStreamChunk
	egressStreamCredit
	egressStreamEnd
	egressReplicate
	egressReplicateAck
)

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
	e.enqueue(egressItem{kind: egressCall, call: c, absDeadline: absDeadline})
}

// enqueueReply queues an outbound reply.
func (e *egress) enqueueReply(r wire.Reply) {
	e.enqueue(egressItem{kind: egressReply, reply: r})
}

// enqueueCancel queues an outbound call revocation. Cancels coalesce with
// the rest of the traffic; a cancel overtaking its own call is impossible
// because the queue preserves enqueue order.
func (e *egress) enqueueCancel(c wire.Cancel) {
	e.enqueue(egressItem{kind: egressCancel, cancel: c})
}

// enqueueStreamOpen queues an outbound stream open. Like a call it carries
// the caller's absolute deadline, so the relative budget is stamped at write
// time and an open that expired in the queue fails locally.
func (e *egress) enqueueStreamOpen(o wire.StreamOpen, absDeadline int64) {
	e.enqueue(egressItem{kind: egressStreamOpen, streamOpen: o, absDeadline: absDeadline})
}

// enqueueStreamChunk queues one outbound stream item. Chunks coalesce with
// calls and replies into the same batch writes — this is what collapses a
// stream's per-item wire cost to a fraction of a syscall.
func (e *egress) enqueueStreamChunk(c wire.StreamChunk) {
	e.enqueue(egressItem{kind: egressStreamChunk, streamChunk: c})
}

// enqueueStreamCredit queues one outbound credit grant.
func (e *egress) enqueueStreamCredit(c wire.StreamCredit) {
	e.enqueue(egressItem{kind: egressStreamCredit, streamCredit: c})
}

// enqueueStreamEnd queues one outbound terminal end frame. The queue
// preserves enqueue order, so an end can never overtake its own chunks.
func (e *egress) enqueueStreamEnd(s wire.StreamEnd) {
	e.enqueue(egressItem{kind: egressStreamEnd, streamEnd: s})
}

// enqueueReplicate queues one outbound warm-standby snapshot. Replication
// traffic coalesces with calls and replies — shipping a snapshot costs a
// fraction of a syscall when the link is busy.
func (e *egress) enqueueReplicate(r wire.Replicate) {
	e.enqueue(egressItem{kind: egressReplicate, replicate: r})
}

// enqueueReplicateAck queues one outbound replication acknowledgement.
func (e *egress) enqueueReplicateAck(a wire.ReplicateAck) {
	e.enqueue(egressItem{kind: egressReplicateAck, replicateAck: a})
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
// whole swath as one batch; anything enqueued during that write is picked
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

// writeBatch ships one swath of queued frames. A single item goes out as a
// plain frame (no sub-frame overhead); more become FrameBatch writes,
// force-flushed at the batch caps. Deadline credit is re-derived per call
// here, expired calls fail locally, and a reply whose results the value
// codec cannot ship is downgraded to an error reply in place.
func (e *egress) writeBatch(items []egressItem) {
	p := e.p
	now := time.Now().UnixNano()

	// Pre-scan calls and stream opens: stamp remaining budgets, collect
	// expired ones.
	var expired []wire.Call
	var expiredOpens []wire.StreamOpen
	live := items[:0]
	for i := range items {
		it := items[i]
		if it.absDeadline != 0 {
			switch it.kind {
			case egressCall:
				rem := it.absDeadline - now
				if rem <= 0 {
					expired = append(expired, it.call)
					continue
				}
				it.call.DeadlineNanos = rem
			case egressStreamOpen:
				rem := it.absDeadline - now
				if rem <= 0 {
					expiredOpens = append(expiredOpens, it.streamOpen)
					continue
				}
				it.streamOpen.DeadlineNanos = rem
			}
		}
		live = append(live, it)
	}
	for _, c := range expired {
		p.n.shedGateway.Add(1)
		if cb, ok := p.takePending(c.Corr); ok {
			cb(wire.Reply{Corr: c.Corr, Kind: wire.KindDeadline,
				Err: "cluster: " + c.Component + "." + c.Op + ": deadline exceeded in egress queue"})
		}
	}
	for _, o := range expiredOpens {
		p.n.shedGateway.Add(1)
		p.n.endStreamIn(p, o.Corr, connector.ErrKindDeadline,
			"cluster: "+o.Component+"."+o.Op+": deadline exceeded in egress queue")
	}
	if len(live) == 0 {
		return
	}

	var failed []wire.Call              // calls whose arguments failed to encode
	var failedOpens []wire.StreamOpen   // stream opens whose arguments failed to encode
	var failedChunks []wire.StreamChunk // chunks whose item failed to encode
	p.encMu.Lock()
	_ = p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	enc := p.enc
	var werr error
	if len(live) == 1 {
		it := live[0]
		switch it.kind {
		case egressReply:
			werr = e.encodeReplyLocked(it.reply, func(r wire.Reply) error { return enc.EncodeReply(r) })
		case egressCancel:
			werr = enc.EncodeCancel(it.cancel)
		case egressStreamOpen:
			if werr = enc.EncodeStreamOpen(it.streamOpen); werr != nil && wireDataError(werr) {
				failedOpens = append(failedOpens, it.streamOpen)
				werr = nil
			}
		case egressStreamChunk:
			if werr = enc.EncodeStreamChunk(it.streamChunk); werr != nil && wireDataError(werr) {
				failedChunks = append(failedChunks, it.streamChunk)
				werr = nil
			}
		case egressStreamCredit:
			werr = enc.EncodeStreamCredit(it.streamCredit)
		case egressStreamEnd:
			werr = enc.EncodeStreamEnd(it.streamEnd)
		case egressReplicate:
			if werr = enc.EncodeReplicate(it.replicate); werr != nil && wireDataError(werr) {
				// An oversized snapshot is a data problem, not a link problem:
				// drop it (the replicator's next round retries; ack lag shows
				// the gap) and keep the link up.
				p.n.opts.Logf("cluster %s: replicate %s seq=%d to %s dropped: %v",
					p.n.id, it.replicate.Component, it.replicate.Seq, p.id, werr)
				werr = nil
			}
		case egressReplicateAck:
			werr = enc.EncodeReplicateAck(it.replicateAck)
		default:
			if werr = enc.EncodeCall(it.call); werr != nil && wireDataError(werr) {
				failed = append(failed, it.call)
				werr = nil
			}
		}
		if werr == nil {
			p.countBatchWrite()
			p.countBatchFrame()
		}
	} else {
		enc.BeginBatch()
		for _, it := range live {
			switch it.kind {
			case egressReply:
				if werr = e.encodeReplyLocked(it.reply, enc.BatchAddReply); werr != nil {
					break
				}
			case egressCancel:
				if werr = enc.BatchAddCancel(it.cancel); werr != nil {
					break
				}
			case egressStreamOpen:
				if aerr := enc.BatchAddStreamOpen(it.streamOpen); aerr != nil {
					if !wireDataError(aerr) {
						werr = aerr
						break
					}
					failedOpens = append(failedOpens, it.streamOpen)
					continue
				}
			case egressStreamChunk:
				if aerr := enc.BatchAddStreamChunk(it.streamChunk); aerr != nil {
					if !wireDataError(aerr) {
						werr = aerr
						break
					}
					failedChunks = append(failedChunks, it.streamChunk)
					continue
				}
			case egressStreamCredit:
				if werr = enc.BatchAddStreamCredit(it.streamCredit); werr != nil {
					break
				}
			case egressStreamEnd:
				if werr = enc.BatchAddStreamEnd(it.streamEnd); werr != nil {
					break
				}
			case egressReplicate:
				if aerr := enc.BatchAddReplicate(it.replicate); aerr != nil {
					if !wireDataError(aerr) {
						werr = aerr
						break
					}
					p.n.opts.Logf("cluster %s: replicate %s seq=%d to %s dropped: %v",
						p.n.id, it.replicate.Component, it.replicate.Seq, p.id, aerr)
					continue
				}
			case egressReplicateAck:
				if werr = enc.BatchAddReplicateAck(it.replicateAck); werr != nil {
					break
				}
			default:
				if aerr := enc.BatchAddCall(it.call); aerr != nil {
					if !wireDataError(aerr) {
						werr = aerr
						break
					}
					failed = append(failed, it.call)
					continue
				}
			}
			if werr != nil {
				break
			}
			p.countBatchFrame()
			if enc.BatchLen() >= batchMaxBytes || enc.BatchCount() >= batchMaxFrames {
				p.countBatchWrite()
				if werr = enc.FlushBatch(); werr != nil {
					break
				}
			}
		}
		if werr == nil && enc.BatchCount() > 0 {
			p.countBatchWrite()
			werr = enc.FlushBatch()
		}
	}
	p.encMu.Unlock()

	for _, c := range failed {
		if cb, ok := p.takePending(c.Corr); ok {
			cb(wire.Reply{Corr: c.Corr, Kind: wire.KindAppError,
				Err: "cluster: " + c.Component + "." + c.Op + ": arguments not wire-encodable"})
		}
	}
	for _, o := range failedOpens {
		p.n.endStreamIn(p, o.Corr, connector.ErrKindApp,
			"cluster: "+o.Component+"."+o.Op+": arguments not wire-encodable")
	}
	for _, c := range failedChunks {
		p.abortRelayEncode(c.Corr)
	}
	if werr != nil {
		p.n.peerDown(p, "egress write: "+werr.Error())
	}
}

// encodeReplyLocked encodes one reply via add, downgrading a reply whose
// results the value codec cannot ship into an error reply (mirroring the
// direct path's second-reply fallback). Returns only transport errors.
func (e *egress) encodeReplyLocked(r wire.Reply, add func(wire.Reply) error) error {
	err := add(r)
	if err != nil && wireDataError(err) {
		return add(wire.Reply{Corr: r.Corr, Err: "cluster: " + err.Error(), Kind: wire.KindAppError})
	}
	return err
}

// wireDataError reports whether err is a per-frame encoding problem (bad
// value type, oversized body) rather than a transport failure: the frame is
// dropped and answered locally, the link stays up.
func wireDataError(err error) bool {
	return err != nil &&
		(errors.Is(err, wire.ErrUnsupportedType) || errors.Is(err, wire.ErrFrameTooBig))
}
