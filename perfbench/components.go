package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	aas "repro"
)

// rpcADL is the architecture of the three RPC workloads: a stateful Store
// reached directly through typed handles, and a Front whose fetch is
// mediated by an rpc connector on its way to Store.get.
const rpcADL = `
system PerfBench {
  component Front {
    provide fetch(key) -> (value)
    require get(key) -> (value)
  }
  component Store {
    provide get(key) -> (value)
    provide put(entry) -> (status)
    provide stats() -> (puts, gets)
    property statefulness = "stateful"
  }
  connector Link { kind rpc }
  bind Front.get -> Store.get via Link
}
`

// putSep separates key from value in a put entry, so puts travel through
// the same ClientOf[string, string] handle shape as gets.
const putSep = "\x00"

// store is the stateful key-value component. Its served counters travel in
// its snapshot, so they survive swaps and migrations and can be checked
// against the callers' successes at the end of a run.
type store struct {
	mu   sync.Mutex
	data map[string]string
	puts int64
	gets int64
}

func newStore() any { return &store{data: map[string]string{}} }

func (s *store) get(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	return s.data[key]
}

func (s *store) put(entry string) error {
	key, val, ok := strings.Cut(entry, putSep)
	if !ok {
		return fmt.Errorf("store: put entry without separator")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = val
	s.puts++
	return nil
}

// HandleTyped serves typed calls in place.
func (s *store) HandleTyped(op string, req, resp any) error {
	in, ok := req.(*string)
	if !ok {
		return aas.ErrUntypedOp
	}
	out, ok := resp.(*string)
	if !ok {
		return aas.ErrUntypedOp
	}
	switch op {
	case "get":
		*out = s.get(*in)
		return nil
	case "put":
		if err := s.put(*in); err != nil {
			return err
		}
		*out = "ok"
		return nil
	}
	return aas.ErrUntypedOp
}

// Handle serves boxed calls: the mediated Front path, remote peers and the
// stats probe.
func (s *store) Handle(op string, args []any) ([]any, error) {
	switch op {
	case "get":
		key, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("store: get key is %T", args[0])
		}
		return []any{s.get(key)}, nil
	case "put":
		entry, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("store: put entry is %T", args[0])
		}
		if err := s.put(entry); err != nil {
			return nil, err
		}
		return []any{"ok"}, nil
	case "stats":
		s.mu.Lock()
		defer s.mu.Unlock()
		return []any{s.puts, s.gets}, nil
	}
	return nil, fmt.Errorf("store: unknown op %s", op)
}

type storeState struct {
	Data map[string]string `json:"data"`
	Puts int64             `json:"puts"`
	Gets int64             `json:"gets"`
}

func (s *store) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(storeState{Data: s.data, Puts: s.puts, Gets: s.gets})
}

func (s *store) Restore(b []byte) error {
	var st storeState
	if err := json.Unmarshal(b, &st); err != nil {
		return err
	}
	if st.Data == nil {
		st.Data = map[string]string{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data, s.puts, s.gets = st.Data, st.Puts, st.Gets
	return nil
}

// front forwards fetch to its bound get requirement through the connector.
type front struct{ caller aas.Caller }

func (f *front) SetCaller(c aas.Caller) { f.caller = c }

func (f *front) Handle(op string, args []any) ([]any, error) {
	if op != "fetch" {
		return nil, fmt.Errorf("front: unknown op %s", op)
	}
	return f.caller.Call("get", args...)
}

// rpcRegistry registers Store, its swap target StoreV2 (the same state
// format, so a swap with state transfer is exact) and Front.
func rpcRegistry() *aas.Registry {
	reg := aas.NewRegistry()
	reg.MustRegister("Store", "1.0", nil, newStore)
	reg.MustRegister("StoreV2", "2.0", nil, newStore)
	reg.MustRegister("Front", "1.0", nil, func() any { return &front{} })
	return reg
}

// hitCounters count what the filter and aspect attached to Front see.
type hitCounters struct{ filter, aspect atomic.Uint64 }

// countFilter is the Transform filter on the Front.get binding.
func countFilter(name string, hits *hitCounters) aas.Filter {
	return aas.TransformFilter{
		FilterName: name,
		Match:      aas.FilterMatcher{Op: "get"},
		Fn:         func(*aas.Message) { hits.filter.Add(1) },
	}
}

// attachMediation puts one filter on the Front.get binding and one aspect
// around Front.fetch.
func attachMediation(sys *aas.System, hits *hitCounters) error {
	if err := sys.AttachFilter("Front", "get", aas.FilterInput, countFilter("count", hits)); err != nil {
		return fmt.Errorf("attach filter: %w", err)
	}
	err := sys.AttachAspect(aas.Aspect{Name: "watch", Advice: []aas.Advice{{
		Pointcut: aas.Pointcut{Component: "Front", Op: "fetch"},
		Before:   func(*aas.Invocation) error { hits.aspect.Add(1); return nil },
	}}})
	if err != nil {
		return fmt.Errorf("attach aspect: %w", err)
	}
	return nil
}

// overloadADL hosts the single Busy component of the overload workload.
const overloadADL = `
system PerfOverload {
  component Busy {
    provide work(x) -> (r)
  }
}
`

// Busy's service model: a pool of slots, each held for a fixed sleep, so
// capacity is slots/service = 800 calls/s on any CPU.
const (
	busySlots   = 4
	busyService = 5 * time.Millisecond
)

// busy holds one of its slots for the service time per call. A handler
// that cannot claim a slot within patience gives up; patience is well past
// every caller budget, so the caller has already counted the call as missed.
type busy struct {
	slots    chan struct{}
	patience time.Duration
	served   atomic.Int64
}

var errNoSlot = errors.New("busy: no slot within patience")

func (b *busy) Handle(op string, args []any) ([]any, error) {
	t := time.NewTimer(b.patience)
	defer t.Stop()
	select {
	case b.slots <- struct{}{}:
	case <-t.C:
		return nil, errNoSlot
	}
	time.Sleep(busyService)
	<-b.slots
	b.served.Add(1)
	return []any{"ok"}, nil
}
