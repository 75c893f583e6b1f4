package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bus"
)

// cancelSet records calls revoked by a bus.OpCancel control message before
// (or while) their request sits in the component's mailbox. The serve path
// consults it once per request; the dominant no-cancellations case must stay
// a single atomic load, so the set keeps a lock-free population counter in
// front of the map.
//
// Entries are keyed by (Src, Corr) — the pair that identifies one in-flight
// request — and carry an expiry so that a cancel whose request was already
// served (or never arrives: the cancel raced a mailbox shed) cannot pin the
// map forever. The sweep is piggybacked on inserts; no background goroutine.
type cancelSet struct {
	n  atomic.Int32
	mu sync.Mutex
	m  map[cancelKey]int64 // value: entry expiry, unix nanos
}

type cancelKey struct {
	src  bus.Address
	corr uint64
}

// cancelTTLNanos bounds how long a cancel entry outlives its moment: longer
// than any plausible mailbox dwell of the request it revokes, short enough
// that orphaned entries vanish promptly.
const cancelTTLNanos = int64(30e9)

// add registers a revocation observed at now (unix nanos).
func (cs *cancelSet) add(src bus.Address, corr uint64, now int64) {
	cs.mu.Lock()
	if cs.m == nil {
		cs.m = make(map[cancelKey]int64)
	}
	if len(cs.m) > 0 {
		for k, exp := range cs.m {
			if exp <= now {
				delete(cs.m, k)
			}
		}
	}
	cs.m[cancelKey{src, corr}] = now + cancelTTLNanos
	cs.n.Store(int32(len(cs.m)))
	cs.mu.Unlock()
}

// take reports whether (src, corr) was revoked, consuming the entry. The
// fast path — nothing revoked — is one atomic load.
func (cs *cancelSet) take(src bus.Address, corr uint64) bool {
	if cs.n.Load() == 0 {
		return false
	}
	cs.mu.Lock()
	_, ok := cs.m[cancelKey{src, corr}]
	if ok {
		delete(cs.m, cancelKey{src, corr})
		cs.n.Store(int32(len(cs.m)))
	}
	cs.mu.Unlock()
	return ok
}
