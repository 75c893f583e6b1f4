package main

import (
	"fmt"
	"math/rand"
	"time"

	aas "repro"
)

// callers is the closed-loop concurrency of every RPC workload: one caller
// per CPU of the 2-CPU machines this benchmark is sized for.
const callers = 2

// opsPerCaller is the length of each caller's generated operation
// sequence; a caller cycles through it.
const opsPerCaller = 4096

type opKind uint8

const (
	opGet   opKind = iota // typed Store.get
	opPut                 // typed Store.put, never budgeted
	opFetch               // untyped Front.fetch through the rpc connector
)

// rpcShape is what distinguishes the three RPC workloads.
type rpcShape struct {
	keys    int
	values  int                      // size of the value pool
	size    func(i int) int          // size in bytes of the pool's i-th value
	weights [3]int                   // relative weight of get, put, fetch
	budgets []time.Duration          // deadline mix of gets and fetches; nil for none
	cluster bool                     // Front on n1, Store on n2, callers on n1
	actions func(r *rand.Rand) []act // controller schedule; nil for none
}

// act is one step of the controller's schedule: wait gap, then do kind.
type act struct {
	kind spanKind
	gap  time.Duration
}

type opDesc struct {
	kind   opKind
	budget int8 // index into the budgeted handles; 0 is the unbudgeted one
	key    int32
	val    int32  // put: index of the value written
	entry  string // put: the prebuilt key/value entry
}

// rpcInputs is everything the seed decides for one RPC run.
type rpcInputs struct {
	keys    []string
	values  []string
	initial []int32 // value index each key is seeded with
	ops     [callers][]opDesc
	actions []act
}

func genRPC(sh rpcShape, seed int64) *rpcInputs {
	r := rand.New(rand.NewSource(seed))
	in := &rpcInputs{keys: make([]string, sh.keys), initial: make([]int32, sh.keys)}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("key-%05d", i)
	}
	for i := 0; i < sh.values; i++ {
		b := make([]byte, sh.size(i))
		for j := range b {
			b[j] = 'a' + byte(r.Intn(26))
		}
		in.values = append(in.values, string(b))
	}
	for k, v := range deal(r, sh.keys, equal(sh.values)) {
		in.initial[k] = int32(v)
	}
	for c := range in.ops {
		kinds := deal(r, opsPerCaller, sh.weights[:])
		vals := deal(r, opsPerCaller, equal(sh.values))
		budgets := deal(r, opsPerCaller, equal(max(1, len(sh.budgets))))
		ops := make([]opDesc, opsPerCaller)
		for i := range ops {
			// Caller c owns the keys congruent to c, so its shadow of
			// their values is exact without coordination.
			d := opDesc{kind: opKind(kinds[i]), key: int32(c + callers*r.Intn(sh.keys/callers))}
			if d.kind == opPut {
				d.val = int32(vals[i])
				d.entry = in.keys[d.key] + putSep + in.values[d.val]
			} else if len(sh.budgets) > 0 {
				d.budget = int8(1 + budgets[i])
			}
			ops[i] = d
		}
		in.ops[c] = ops
	}
	if sh.actions != nil {
		in.actions = sh.actions(r)
	}
	return in
}

// deal returns n category indices in a seeded order, category i appearing
// in proportion to weights[i] as exactly as n allows. Seeds then differ in
// the order of the inputs, not in their mix.
func deal(r *rand.Rand, n int, weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	for i, w := range weights {
		for range n * w / total {
			out = append(out, i)
		}
	}
	// Rounding leaves a few slots; give them to categories in turn.
	for i := 0; len(out) < n; i++ {
		out = append(out, i%len(weights))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// equal is n equal weights.
func equal(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// tracedBuffer is the per-shard span ring of traced runs: 8 shards of 8192
// keep the last 65536 program spans of each node.
const tracedBuffer = 1 << 13

// rpcSession is one assembled RPC system and the callers' view of it.
type rpcSession struct {
	sh   rpcShape
	in   *rpcInputs
	ns   []node
	h    *aas.ClusterHarness // nil for a single system
	home *aas.System         // where callers and Front live
	regs map[string]*aas.Registry
	hits hitCounters

	get   []*aas.TypedClient[string, string] // by budget index
	put   *aas.TypedClient[string, string]
	fetch []*aas.Client // by budget index

	shadow []int32 // value index last written per key, by its owning caller
	seq    []int
	// Per-caller success ledgers for the served == completed gate.
	okPuts, okGets, triedGets [callers + 1]uint64 // last slot: set-up and read-back

	owner string // controller's view of Store's host
	swaps int
}

func buildRPC(sh rpcShape, in *rpcInputs, traced bool) (*rpcSession, error) {
	s := &rpcSession{sh: sh, in: in, seq: make([]int, callers), owner: "n1"}
	var opts aas.Options
	if traced {
		opts.TraceBuffer = tracedBuffer
	}
	if sh.cluster {
		s.regs = map[string]*aas.Registry{"n1": rpcRegistry(), "n2": rpcRegistry()}
		spec := aas.ClusterSpec{
			ADL:       rpcADL,
			Nodes:     []string{"n1", "n2"},
			Placement: map[string]string{"Front": "n1", "Store": "n2"},
			Registry:  byNode([]string{"n1", "n2"}, s.regs["n1"].Registry, s.regs["n2"].Registry),
		}
		if traced {
			spec.Options = func(string) aas.Options { return opts }
		}
		h, err := aas.StartCluster(bg, spec)
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		s.h, s.home, s.owner = h, h.System("n1"), "n2"
		s.ns = []node{{h.System("n1"), h.Node("n1")}, {h.System("n2"), h.Node("n2")}}
	} else {
		s.regs = map[string]*aas.Registry{"n1": rpcRegistry()}
		opts.Registry = s.regs["n1"].Registry
		sys, err := aas.Load(rpcADL, opts)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		if err := sys.Start(bg); err != nil {
			return nil, fmt.Errorf("start: %w", err)
		}
		s.home = sys
		s.ns = []node{{sys: sys}}
	}
	if err := attachMediation(s.home, &s.hits); err != nil {
		s.close()
		return nil, err
	}
	get := aas.ClientOf[string, string](s.home, "Store")
	fetch := s.home.Client("Front")
	s.get, s.fetch = []*aas.TypedClient[string, string]{get}, []*aas.Client{fetch}
	for _, b := range sh.budgets {
		s.get = append(s.get, get.With(aas.WithDeadline(b)))
		s.fetch = append(s.fetch, fetch.With(aas.WithDeadline(b)))
	}
	s.put = get
	if _, err := get.Call(bg, "get", in.keys[0]); err != nil {
		s.close()
		return nil, fmt.Errorf("first call: %w", err)
	}
	s.triedGets[callers]++
	s.okGets[callers]++
	return s, nil
}

// byNode adapts one registry per node to ClusterSpec.Registry; R is the
// registry type the facade exposes only through aas.Registry's field.
func byNode[R any](ids []string, regs ...R) func(string) R {
	m := make(map[string]R, len(ids))
	for i, id := range ids {
		m[id] = regs[i]
	}
	return func(id string) R { return m[id] }
}

func (s *rpcSession) nodes() []node { return s.ns }

func (s *rpcSession) close() {
	if s.h != nil {
		s.h.Close()
		return
	}
	s.home.Stop()
}

// warm seeds every key with its initial value, then runs the callers
// unrecorded so caches, connections and the admission estimator settle.
func (s *rpcSession) warm() error {
	s.shadow = make([]int32, len(s.in.keys))
	for k, v := range s.in.initial {
		if _, err := s.put.Call(bg, "put", s.in.keys[k]+putSep+s.in.values[v]); err != nil {
			return fmt.Errorf("seed key %s: %w", s.in.keys[k], err)
		}
		s.shadow[k] = v
		s.okPuts[callers]++
	}
	start := time.Now()
	lanes := closedLoop(s.op, s.seq, start, start.Add(warmup), 1, false, 0)
	return laneErr(lanes)
}

// warmup is the unrecorded load before every measured window.
const warmup = 500 * time.Millisecond

func laneErr(lanes []*lane) error {
	for _, l := range lanes {
		if l.firstErr != nil {
			return l.firstErr
		}
	}
	return nil
}

func (s *rpcSession) op(c, n int) (spanKind, time.Duration, error) {
	d := &s.in.ops[c][n%opsPerCaller]
	var budget time.Duration
	if d.budget > 0 {
		budget = s.sh.budgets[d.budget-1]
	}
	switch d.kind {
	case opPut:
		if _, err := s.put.Call(bg, "put", d.entry); err != nil {
			return spanTypedCall, 0, fmt.Errorf("put %s: %w", s.in.keys[d.key], err)
		}
		s.shadow[d.key] = d.val
		s.okPuts[c]++
		return spanTypedCall, 0, nil
	case opGet:
		s.triedGets[c]++
		v, err := s.get[d.budget].Call(bg, "get", s.in.keys[d.key])
		if err != nil {
			return spanTypedCall, budget, err
		}
		s.okGets[c]++
		return spanTypedCall, budget, s.check(d.key, v)
	default:
		s.triedGets[c]++
		out, err := s.fetch[d.budget].Call(bg, "fetch", s.in.keys[d.key])
		if err != nil {
			return spanClientCall, budget, err
		}
		s.okGets[c]++
		v, _ := out[0].(string)
		return spanClientCall, budget, s.check(d.key, v)
	}
}

func (s *rpcSession) check(key int32, got string) error {
	if want := s.in.values[s.shadow[key]]; got != want {
		return fmt.Errorf("%w: %s has %d bytes, want %d", errWrongOutput, s.in.keys[key], len(got), len(want))
	}
	return nil
}

func (s *rpcSession) drive(o *outcome, start, end time.Time, traced bool) error {
	var halt func()
	var ctlErr error
	if s.in.actions != nil {
		halt = background(func(stop <-chan struct{}) { o.actions, ctlErr = s.control(stop) })
	}
	spanCap := 0
	if traced {
		// Sized from the untraced phase's rate so the span buffers do not
		// grow inside the window.
		spanCap = int(float64(o.expectCalls)*1.25)/callers + 1024
	}
	lanes := closedLoop(s.op, s.seq, start, end, windows, traced, spanCap)
	if halt != nil {
		halt()
	}
	o.addLanes(lanes)
	return ctlErr
}

// control runs the controller's seeded schedule until stop: live
// migrations of Store between n1 and n2, implementation swaps with state
// transfer on Store's host, and filter-chain replacement on Front.get.
func (s *rpcSession) control(stop <-chan struct{}) ([]benchSpan, error) {
	var done []benchSpan
	for i := 0; ; i++ {
		a := s.in.actions[i%len(s.in.actions)]
		if !sleepOrStop(stop, a.gap) {
			return done, nil
		}
		var fn func() error
		switch a.kind {
		case spanMigrate:
			from, to := s.owner, "n1"
			if from == "n1" {
				to = "n2"
			}
			fn = func() error {
				if err := s.h.System(from).Migrate("Store", aas.NodeID(to)); err != nil {
					return fmt.Errorf("migrate Store %s -> %s: %w", from, to, err)
				}
				s.owner = to
				return nil
			}
		case spanSwap:
			impl := "StoreV2"
			if s.swaps%2 == 1 {
				impl = "Store"
			}
			entry, err := s.regs[s.owner].Lookup(impl)
			if err != nil {
				return done, fmt.Errorf("lookup %s: %w", impl, err)
			}
			fn = func() error {
				if _, err := s.h.System(s.owner).SwapImplementation("Store", entry, true); err != nil {
					return fmt.Errorf("swap Store to %s on %s: %w", impl, s.owner, err)
				}
				s.swaps++
				return nil
			}
		case spanReplaceFilters:
			chain := []aas.Filter{countFilter(fmt.Sprintf("count-%d", i), &s.hits)}
			if i%2 == 1 {
				chain = append(chain, countFilter(fmt.Sprintf("extra-%d", i), &s.hits))
			}
			fn = func() error {
				return s.home.ReplaceFilters("Front", "get", aas.FilterInput, chain...)
			}
		}
		sp, err := timed(a.kind, fn)
		if err != nil {
			return done, err
		}
		done = append(done, sp)
	}
}

// finish reads every key back, then checks the Store's own served counters
// against the callers' successes.
func (s *rpcSession) finish(o *outcome) error {
	for k, key := range s.in.keys {
		s.triedGets[callers]++
		v, err := s.get[0].Call(bg, "get", key)
		if err != nil {
			return fmt.Errorf("read back %s: %w", key, err)
		}
		s.okGets[callers]++
		if err := s.check(int32(k), v); err != nil {
			return fmt.Errorf("state not preserved: %w", err)
		}
	}
	out, err := s.home.Client("Store").Call(bg, "stats")
	if err != nil {
		return fmt.Errorf("store stats: %w", err)
	}
	puts, _ := out[0].(int64)
	gets, _ := out[1].(int64)
	var okPuts, okGets, tried uint64
	for i := range s.okPuts {
		okPuts += s.okPuts[i]
		okGets += s.okGets[i]
		tried += s.triedGets[i]
	}
	if uint64(puts) != okPuts {
		return fmt.Errorf("store served %d puts, callers completed %d", puts, okPuts)
	}
	// Unbudgeted gets are served exactly once each. A budgeted get the
	// caller gave up on may still have been served, or shed unserved.
	if s.sh.budgets == nil && uint64(gets) != okGets {
		return fmt.Errorf("store served %d gets, callers completed %d", gets, okGets)
	}
	if uint64(gets) < okGets || uint64(gets) > tried {
		return fmt.Errorf("store served %d gets, callers completed %d of %d", gets, okGets, tried)
	}
	o.note("store served: %d puts, %d gets (callers completed %d of %d gets); filter hits %d, aspect hits %d",
		puts, gets, okGets, tried, s.hits.filter.Load(), s.hits.aspect.Load())
	return nil
}

// The three RPC workloads.

// Value sizes are fixed by position in the pool, not drawn from the seed,
// so every seed moves the same mix of bytes; the seed decides the values'
// contents and which keys and operations use which value.

// smallValues spreads the pool evenly over 16-64 bytes.
func smallValues(i int) int { return 16 + i%49 }

// mixedValues cycles from the smallest message (key only, empty value)
// through every power of two from 16 B to 16 KiB, so per-call and per-byte
// costs both show.
func mixedValues(i int) int {
	if i%12 == 0 {
		return 0
	}
	return 1 << (3 + i%12)
}

// churnSchedule interleaves migrations, swaps and filter replacements. It
// is built from segments of segLen actions (11 migrations, 7 swaps, 7
// replacements, gaps spread evenly over 2-10 ms) in a seeded order, each
// played twice. A segment holds an odd number of migrations, so its replay
// runs with Store on the other node: Store spends the same time on each
// node whatever the seed, and call throughput, which differs several-fold
// between a local and a remote Store, does not depend on which node a seed
// happened to favour.
func churnSchedule(r *rand.Rand) []act {
	const segLen, segs = 25, 20
	kindOf := []spanKind{spanMigrate, spanSwap, spanReplaceFilters}
	var acts []act
	for range segs {
		kinds := deal(r, segLen, []int{11, 7, 7})
		gaps := r.Perm(segLen)
		seg := make([]act, segLen)
		for i := range seg {
			seg[i] = act{
				kind: kindOf[kinds[i]],
				gap:  2*time.Millisecond + time.Duration(2*gaps[i]+1)*4*time.Millisecond/segLen,
			}
		}
		acts = append(acts, seg...)
		acts = append(acts, seg...)
	}
	return acts
}

var (
	localShape = rpcShape{
		keys: 1024, values: 64, size: smallValues, weights: [3]int{40, 20, 40},
	}
	remoteShape = rpcShape{
		keys: 256, values: 64, size: mixedValues, weights: [3]int{40, 20, 40}, cluster: true,
	}
	churnShape = rpcShape{
		keys: 256, values: 64, size: smallValues, weights: [3]int{45, 20, 35}, cluster: true,
		budgets: []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond},
		actions: churnSchedule,
	}
)
