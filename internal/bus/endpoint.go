package bus

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is a component's mailbox on the bus. Receivers consume messages
// in delivery order; the endpoint also keeps per-source sequence accounting
// so tests and the RAML guard can verify FIFO preservation across
// reconfigurations.
//
// The mailbox is a growable ring buffer: it starts small, doubles up to the
// configured capacity, and reuses slots afterwards, so steady-state
// enqueue/dequeue allocates nothing. The endpoint shares its mutex with the
// bus route that owns it: sequence assignment, the paused check and the
// enqueue are one critical section, and a delivery pays for one lock, not
// two.
//
// Deadline-carrying requests take a second lane (DESIGN.md §9): a bounded
// binary heap keyed on Message.Deadline, served earliest-deadline-first with
// lazy shedding of already-expired entries. Everything else — deadline-less
// requests, replies, events, control — keeps the FIFO ring, so the
// zero-alloc steady-state path is unchanged. Both lanes share the one
// capacity bound.
//
// An owner that answers its replies in place installs a reply hook
// (SetReplyFunc): a Reply then goes straight to its waiter on the delivering
// goroutine and never enters either lane. An owner whose receivers serve
// requests installs serve hooks (SetServeHooks) so its in-service count and
// its transient receivers are maintained under the same lock as the queue.
type Endpoint struct {
	addr Address

	mu      *sync.Mutex // shared with the owning route
	buf     []Message   // ring storage; len(buf) is the current allocation
	head    int         // index of the oldest message
	count   int         // messages currently queued in the ring
	cap     int         // hard mailbox capacity (both lanes combined)
	closed  bool
	waiting int           // receivers parked in select, guarded by mu
	notify  chan struct{} // capacity 1: wake one waiting receiver
	done    chan struct{} // closed on close(): broadcast to all receivers

	edfq      []Message     // deadline lane: min-heap on (Deadline, ID)
	fifoOnly  bool          // disable the EDF lane (seed-comparison mode)
	stats     *busStats     // owning bus counters, for expired-discard accounting
	depth     atomic.Int64  // lock-free mirror of count+len(edfq) for admission
	expired   uint64        // messages shed because their deadline lapsed
	onExpired func(Message) // optional shed hook; runs under mu, must be fast

	received  uint64
	arrivals  seqTable // last seen per-source sequence; the dst is fixed
	reordered uint64
	duplicate uint64

	// Hooks installed by the owner before traffic flows; all run under mu.
	onReply   func(Message) // takes Replies in place of the mailbox
	onBacklog func()        // more queued than receivers parked
	serving   *atomic.Int64 // counts Requests handed to receivers
}

const initialRing = 16

func newEndpoint(addr Address, capacity int, mu *sync.Mutex, stats *busStats, fifoOnly bool) *Endpoint {
	ring := initialRing
	if capacity < ring {
		ring = capacity
	}
	return &Endpoint{
		addr:     addr,
		mu:       mu,
		buf:      make([]Message, ring),
		cap:      capacity,
		fifoOnly: fifoOnly,
		stats:    stats,
		notify:   make(chan struct{}, 1),
		done:     make(chan struct{}),
		arrivals: newSeqTable(),
	}
}

// Addr returns the endpoint's bus address.
func (e *Endpoint) Addr() Address { return e.addr }

// pushLocked appends m to the ring, growing it if allowed; callers hold
// e.mu and have checked count < cap.
func (e *Endpoint) pushLocked(m *Message) {
	if e.count == len(e.buf) {
		grown := len(e.buf) * 2
		if grown > e.cap {
			grown = e.cap
		}
		next := make([]Message, grown)
		n := copy(next, e.buf[e.head:])
		copy(next[n:], e.buf[:e.head])
		e.buf = next
		e.head = 0
	}
	e.buf[(e.head+e.count)%len(e.buf)] = *m
	e.count++
}

// popLocked removes and returns the oldest message; callers hold e.mu and
// have checked count > 0. The slot is zeroed so the ring does not retain
// payload references.
func (e *Endpoint) popLocked() Message {
	m := e.buf[e.head]
	e.buf[e.head] = Message{}
	e.head = (e.head + 1) % len(e.buf)
	e.count--
	return m
}

// pendingLocked reports queued messages across both lanes; callers hold e.mu.
func (e *Endpoint) pendingLocked() int { return e.count + len(e.edfq) }

// syncDepthLocked refreshes the lock-free depth mirror; callers hold e.mu.
func (e *Endpoint) syncDepthLocked() { e.depth.Store(int64(e.pendingLocked())) }

// noteExpiredLocked records one shed message (deadline lapsed before
// delivery) and fires the hook; callers hold e.mu. Bus-level stat
// adjustment is the caller's job — the right adjustment differs between a
// message shed out of the mailbox (already counted delivered) and one shed
// out of a held queue (still counted held).
func (e *Endpoint) noteExpiredLocked(m *Message) {
	e.expired++
	if e.onExpired != nil {
		e.onExpired(*m)
	}
}

// dequeueLocked pops the next message to serve under the EDF policy (see
// nextLocked). A popped Request is counted in the serving counter, when one
// is installed, before the depth mirror drops, so a reader of depth then
// serving never misses it. Callers hold e.mu.
func (e *Endpoint) dequeueLocked(now int64) (Message, bool) {
	m, ok := e.nextLocked(now)
	if ok && m.Kind == Request && e.serving != nil {
		e.serving.Add(1)
	}
	e.syncDepthLocked()
	return m, ok
}

// nextLocked pops the next message under the EDF policy, lazily shedding
// deadline lane entries that expired before now (unix nanoseconds).
// Priority: ring head when it is not a Request (replies, events and control
// never starve behind deadlined work), then the earliest future deadline,
// then the ring. It reports false when every queued message was shed and
// nothing remains. Callers hold e.mu and refresh the depth mirror.
func (e *Endpoint) nextLocked(now int64) (Message, bool) {
	for {
		if e.count > 0 && e.buf[e.head].Kind != Request {
			return e.popLocked(), true
		}
		if len(e.edfq) > 0 {
			var m Message
			m, e.edfq = edfPop(e.edfq)
			if m.Deadline <= now {
				// Shed: the caller's budget lapsed while the request queued.
				// It was counted delivered at enqueue; reclassify as dropped
				// so Sent == Delivered + Dropped + Held stays exact.
				e.noteExpiredLocked(&m)
				if e.stats != nil {
					e.stats.delivered.Add(^uint64(0))
					e.stats.dropped.Add(1)
				}
				continue
			}
			return m, true
		}
		if e.count > 0 {
			return e.popLocked(), true
		}
		return Message{}, false
	}
}

// nowIfDeadlined returns the wall clock in unix nanoseconds when the
// deadline lane is non-empty, 0 otherwise — the FIFO-only fast path never
// touches the clock. Callers hold e.mu.
func (e *Endpoint) nowIfDeadlined() int64 {
	if len(e.edfq) == 0 {
		return 0
	}
	return time.Now().UnixNano()
}

// enqueueLocked accepts m and reports false when the mailbox is full or
// closed. A Reply goes to the reply hook when one is installed and is never
// queued. Otherwise deadline-carrying requests go to the EDF lane and
// everything else to the FIFO ring; both lanes share the capacity bound. A
// parked receiver is woken, and the backlog hook runs when the queue now
// holds more messages than receivers are parked to take them. Callers hold
// e.mu (the route lock).
func (e *Endpoint) enqueueLocked(m *Message) bool {
	if e.closed {
		return false
	}
	if m.Kind == Reply && e.onReply != nil {
		e.noteArrivalLocked(m)
		e.onReply(*m)
		return true
	}
	if e.pendingLocked() >= e.cap {
		return false
	}
	if m.Kind == Request && m.Deadline != 0 && !e.fifoOnly {
		e.edfq = edfPush(e.edfq, m)
	} else {
		e.pushLocked(m)
	}
	e.syncDepthLocked()
	e.noteArrivalLocked(m)
	if e.waiting > 0 {
		select {
		case e.notify <- struct{}{}:
		default:
		}
	}
	if e.onBacklog != nil && e.pendingLocked() > e.waiting {
		e.onBacklog()
	}
	return true
}

// noteArrivalLocked counts one accepted message and checks its per-source
// sequence number for duplicates and reorderings; callers hold e.mu.
func (e *Endpoint) noteArrivalLocked(m *Message) {
	e.received++
	cell := e.arrivals.cell(m.Src)
	switch last := *cell; {
	case m.Seq == last && m.Seq != 0:
		e.duplicate++
	case m.Seq < last:
		e.reordered++
	default:
		*cell = m.Seq
	}
}

// Receive blocks until a message arrives, the endpoint closes, or ctx is
// done.
func (e *Endpoint) Receive(ctx context.Context) (Message, error) {
	registered := false
	for {
		e.mu.Lock()
		if registered {
			e.waiting--
			registered = false
		}
		if e.pendingLocked() > 0 {
			m, ok := e.dequeueLocked(e.nowIfDeadlined())
			if ok {
				if e.pendingLocked() > 0 && e.waiting > 0 {
					// Rearm the wakeup for other receivers.
					select {
					case e.notify <- struct{}{}:
					default:
					}
				}
				e.mu.Unlock()
				return m, nil
			}
			// Everything queued was shed as expired; fall through and wait.
		}
		if e.closed {
			e.mu.Unlock()
			return Message{}, ErrClosed
		}
		// Register before releasing the lock: enqueueLocked only notifies
		// when it observes a waiter, and it observes under the same lock.
		e.waiting++
		registered = true
		e.mu.Unlock()
		select {
		case <-e.notify:
		case <-e.done:
		case <-ctx.Done():
			e.mu.Lock()
			e.waiting--
			e.mu.Unlock()
			return Message{}, ctx.Err()
		}
	}
}

// TryReceive pops a message without blocking; ok is false when empty (or
// when everything queued was shed as expired).
func (e *Endpoint) TryReceive() (Message, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pendingLocked() == 0 {
		return Message{}, false
	}
	return e.dequeueLocked(e.nowIfDeadlined())
}

// Len reports queued messages across both lanes.
func (e *Endpoint) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pendingLocked()
}

// Depth reports queued messages without taking the route lock: one atomic
// load of a mirror maintained by every enqueue/dequeue. Admission control
// reads this on every call, so it must never contend with delivery.
func (e *Endpoint) Depth() int64 { return e.depth.Load() }

// Expired reports messages shed because their deadline lapsed before
// delivery.
func (e *Endpoint) Expired() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expired
}

// SetExpiredFunc installs a hook invoked for each message shed as expired.
// The hook runs under the route lock: it must be fast and must not call
// back into the bus.
func (e *Endpoint) SetExpiredFunc(f func(Message)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onExpired = f
}

// SetReplyFunc installs the reply hook: every Reply delivered to the
// endpoint — by Send, by a delayed delivery or by the flush of Resume — is
// passed to f instead of being queued, and counts as delivered and received
// like an enqueued message. f runs on the delivering goroutine under the
// route lock, so it must not block and must not call back into the bus. The
// message is passed by value so a delivery never moves the sender's copy to
// the heap. The lock order is route lock → whatever f takes (the
// owner's waiter-table shard or stream lock); nothing may send on the bus
// while holding those. Install it before traffic flows.
func (e *Endpoint) SetReplyFunc(f func(Message)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onReply = f
}

// SetServeHooks wires the endpoint to an owner whose receivers serve its
// requests. Every Request a receiver dequeues (Receive or TryReceive) is
// counted in serving under the route lock, before the lock is released; the
// owner decrements it when service ends, so queued + serving never misses a
// popped request. backlog runs under the route lock whenever an enqueue
// leaves more messages queued than receivers parked in Receive: the owner
// starts a transient receiver there, so no request waits on receivers that
// are all busy. backlog must not block or call back into the bus. Install
// before traffic flows.
func (e *Endpoint) SetServeHooks(serving *atomic.Int64, backlog func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.serving, e.onBacklog = serving, backlog
}

// Received reports the total number of messages ever accepted, queued or
// passed to the reply hook.
func (e *Endpoint) Received() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.received
}

// Anomalies reports (duplicates, reorderings) observed in the per-source
// sequence numbers.
func (e *Endpoint) Anomalies() (dups, reorders uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.duplicate, e.reordered
}

// close marks the endpoint closed and wakes all blocked receivers. Queued
// messages remain readable via TryReceive.
func (e *Endpoint) close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
	e.mu.Unlock()
}
