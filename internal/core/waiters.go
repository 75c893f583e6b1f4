package core

import "sync"

// corrTable correlates outstanding requests with their waiters: reply
// channels for calls, open streams for server streams. Correlation ids are
// drawn from an atomic counter, so consecutive calls land on consecutive
// shards and concurrent callers almost never share a lock — the call path
// pays one short sharded critical section instead of a process-wide mutex.
type corrTable[V any] struct {
	shards [corrShards]corrShard[V]
}

const corrShards = 16 // power of two

type corrShard[V any] struct {
	mu sync.Mutex
	m  map[uint64]V
	_  [6]uint64 // pad to 64 bytes: neighbouring shards' locks must not share a cache line
}

func (t *corrTable[V]) shard(corr uint64) *corrShard[V] {
	return &t.shards[corr&(corrShards-1)]
}

// add registers the waiter for corr.
func (t *corrTable[V]) add(corr uint64, v V) {
	s := t.shard(corr)
	s.mu.Lock()
	if s.m == nil {
		s.m = map[uint64]V{}
	}
	s.m[corr] = v
	s.mu.Unlock()
}

// lookup returns the waiter for corr without removing it.
func (t *corrTable[V]) lookup(corr uint64) (V, bool) {
	s := t.shard(corr)
	s.mu.Lock()
	v, ok := s.m[corr]
	s.mu.Unlock()
	return v, ok
}

// take removes and returns the waiter for corr, if present.
func (t *corrTable[V]) take(corr uint64) (V, bool) {
	s := t.shard(corr)
	s.mu.Lock()
	v, ok := s.m[corr]
	if ok {
		delete(s.m, corr)
	}
	s.mu.Unlock()
	return v, ok
}

// outstanding counts registered waiters across all shards — in-flight calls
// or open streams. Diagnostic only (PendingCalls, PendingStreams and the
// cancellation-storm leak regressions); the shards are locked one at a time,
// so the count is a consistent-per-shard snapshot, exact when idle.
func (t *corrTable[V]) outstanding() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
