package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/aspects"
	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/container"
	"repro/internal/metaobj"
	"repro/internal/netsim"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Caller lets a hosted component invoke its required services; calls are
// routed through the connector bound to each requirement.
type Caller interface {
	// Call invokes the named required service and returns its results.
	Call(service string, args ...any) ([]any, error)
}

// ContextCaller is the context-aware extension of Caller: outcalls made
// through it honour the context's deadline and cancellation, and the
// deadline propagates with the request exactly as at the platform edge. The
// Caller every CallerAware component receives implements it; assert to use:
//
//	if cc, ok := caller.(core.ContextCaller); ok {
//		res, err = cc.CallContext(ctx, "get", key)
//	}
type ContextCaller interface {
	Caller
	// CallContext invokes the named required service under ctx.
	CallContext(ctx context.Context, service string, args ...any) ([]any, error)
}

// CallerAware components receive their Caller during assembly (dependency
// injection of the "use output" side).
type CallerAware interface {
	SetCaller(c Caller)
}

// ComponentAddress returns the bus address of a named component.
func ComponentAddress(name string) bus.Address { return bus.Address("comp:" + name) }

// runtimeComponent is one running component: a container, a bus endpoint
// served by a pool of workers, and a routing table from required services
// to connectors.
type runtimeComponent struct {
	sys   *System
	name  string
	decl  adl.ComponentDecl
	cont  *container.Container
	ep    *bus.Endpoint
	node  netsim.NodeID
	entry registry.Entry // the implementation currently hosted

	// allocCPU is the capacity actually allocated on the hosting node at
	// placement time. Release paths (migration, removal) must release
	// exactly this amount: the declared requirement can change between
	// allocation and release (a ModifyComponent step rewrites decl without
	// reallocating), and releasing the re-read value drifts the node's
	// accounting. Guarded by s.mu like node.
	allocCPU float64

	// routes maps required services to connector addresses. It is a
	// copy-on-write snapshot (the component-side mirror of the bus routing
	// table): Call loads it atomically, assembly and rebinding republish it
	// under mu.
	mu     sync.Mutex // serializes route writers (control plane)
	routes atomic.Pointer[map[string]bus.Address]

	waiters corrTable[chan connector.ReplyPayload]
	corr    atomic.Uint64
	// serving counts requests between mailbox pop and serve completion. The
	// endpoint increments it under the route lock as it pops a request, so
	// depth (queued + serving) never misses one: a cross-node handoff drains
	// on it, and no popped-but-unrequeued message can be lost to the
	// endpoint teardown.
	serving atomic.Int64
	// adm estimates this component's queueing delay from observed service
	// times (DESIGN.md §9); the platform edge consults it to shed calls whose
	// deadline budget the backlog already exceeds.
	adm *qos.Admission
	// cancels records requests revoked by a bus.OpCancel control message so
	// queued work whose caller gave up is answered without being served.
	cancels cancelSet
	// woven is this component's compiled aspect pipeline: advice whose
	// component pointcut cannot match this component is excluded at weave
	// (compile) time, and the weaver republishes the chain atomically on
	// every aspect interchange.
	woven *aspects.Woven
	// meta is the component's meta-object chain (interaction patterns, §2);
	// serve executes its published snapshot around the woven invocation.
	meta metaobj.Chain

	// streams tracks running stream producers keyed by (consumer, corr) so
	// credit and cancel controls find them; abortStreams drains the table
	// before any quiesce (streams are long-lived by design, so waiting
	// them out would hold every reconfiguration hostage).
	smu     sync.Mutex
	streams map[streamKey]*streamProducer
	// serveCtx is the serve workers' context, parent of every stream
	// producer: stopping the component reclaims its streams.
	serveCtx context.Context

	// life orders transient-server starts against stop: wg.Add only runs
	// while running, and stop clears running before it waits.
	life    sync.Mutex
	running bool
	wg      sync.WaitGroup
	cancel  context.CancelFunc
}

var _ ContextCaller = (*runtimeComponent)(nil)

func newRuntimeComponent(sys *System, decl adl.ComponentDecl, cont *container.Container, node netsim.NodeID) (*runtimeComponent, error) {
	ep, err := sys.bus.Attach(ComponentAddress(decl.Name), sys.mailbox)
	if err != nil {
		return nil, err
	}
	rc := &runtimeComponent{
		sys:  sys,
		name: decl.Name,
		decl: decl,
		cont: cont,
		ep:   ep,
		node: node,
		adm:  qos.NewAdmission(serveWorkers),
	}
	empty := map[string]bus.Address{}
	rc.routes.Store(&empty)
	// Replies go straight to their outcall waiters, popped requests are
	// counted in serving under the route lock, and a backlog the parked
	// workers cannot cover starts a transient server.
	rc.ep.SetReplyFunc(rc.deliverReply)
	rc.ep.SetServeHooks(&rc.serving, rc.spawnServer)
	// Weave the system's aspects around the container invocation. The
	// binding's advice chain is compiled for this component name and
	// recompiled (atomically republished) on every aspect interchange, so
	// aspects attached later apply to this component on their next call.
	base := func(inv *aspects.Invocation) (any, error) {
		switch call := inv.Args.(type) {
		case connector.CallPayload:
			return cont.Invoke(call.Principal, inv.Op, call.Args)
		case connector.TypedCall:
			// Typed fast path: the container hands the request and response
			// pointers straight to a TypedComponent. When the component (or
			// this op) only speaks Handle, the container falls back to the
			// boxed form and the results flow back like an untyped call.
			res, typed, err := cont.InvokeTyped(call.Principal(), inv.Op, call)
			if typed && err == nil {
				return typedServed, nil
			}
			return res, err
		default:
			res, err := cont.Invoke("", inv.Op, nil)
			return res, err
		}
	}
	rc.woven = sys.weaver.WeaveFor(decl.Name, base)
	return rc, nil
}

// typedServed is the sentinel result of a typed in-place invocation: the
// response is already written through the envelope, so there is nothing to
// box into the reply. An aspect that replaces the result with its own []any
// overrides the sentinel and serve decodes its results into the envelope.
var typedServed any = &struct{}{}

// setRoute binds a required service to a connector address.
func (rc *runtimeComponent) setRoute(service string, conn bus.Address) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	next := maps.Clone(*rc.routes.Load())
	next[service] = conn
	rc.routes.Store(&next)
}

// dropRoute unbinds a required service.
func (rc *runtimeComponent) dropRoute(service string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	next := maps.Clone(*rc.routes.Load())
	delete(next, service)
	rc.routes.Store(&next)
}

// serveWorkers is the number of persistent serve goroutines per component.
// Each dequeues from the mailbox itself, so a steady-state request goes from
// the sender straight to an idle worker without spawning. A transient
// server (and its goroutine) is reserved for bursts beyond the pool and for
// re-entrant calls that would otherwise wait on themselves.
const serveWorkers = 4

// start launches the serve workers.
func (rc *runtimeComponent) start(ctx context.Context) {
	ctx, rc.cancel = context.WithCancel(ctx)
	rc.serveCtx = ctx
	rc.cont.Activate()
	rc.life.Lock()
	rc.running = true
	rc.wg.Add(serveWorkers)
	rc.life.Unlock()
	// Requests queued before start (a component is published before its
	// workers run) found the backlog hook idle. Count them now, before any
	// worker pops one, and give each beyond the pool a server, as the hook
	// would have; requests arriving from here on run the hook themselves.
	early := rc.ep.Len()
	// Wait until every worker has run: one still sitting in a run queue
	// since its go statement is not parked in Receive, so each request
	// would count as backlog and start a transient server — and a caller
	// ping-ponging with those transients can keep the workers from ever
	// being scheduled.
	var ready sync.WaitGroup
	ready.Add(serveWorkers)
	for i := 0; i < serveWorkers; i++ {
		go func() {
			defer rc.wg.Done()
			ready.Done()
			for {
				m, err := rc.ep.Receive(ctx)
				if err != nil {
					return
				}
				rc.handle(m)
			}
		}()
	}
	ready.Wait()
	for ; early > serveWorkers; early-- {
		rc.spawnServer()
	}
	rc.sys.events.Emit(Event{Kind: EvComponentStarted, At: rc.sys.clk.Now(), Component: rc.name})
}

// spawnServer is the endpoint's backlog hook: an enqueue left more messages
// queued than workers parked, so the surplus has no free worker — every
// other one is inside a handler, possibly blocked on a call back into this
// very component. This keeps the self-call no-deadlock guarantee: every
// queued request gets a server at once. The transient server drains the
// mailbox until it is empty, then exits. Runs under the route lock: it
// only starts the goroutine.
func (rc *runtimeComponent) spawnServer() {
	rc.life.Lock()
	defer rc.life.Unlock()
	if !rc.running {
		return
	}
	rc.wg.Add(1)
	go rc.drain()
}

// drain is a transient server's life: serve whatever is queued, then exit.
func (rc *runtimeComponent) drain() {
	defer rc.wg.Done()
	for {
		m, ok := rc.ep.TryReceive()
		if !ok {
			return
		}
		rc.handle(m)
	}
}

// handle serves one dequeued message. Replies never arrive here — the reply
// hook takes them at delivery.
func (rc *runtimeComponent) handle(m bus.Message) {
	switch m.Kind {
	case bus.Request:
		// The endpoint counted the request in serving when it was popped.
		rc.serve(m)
		rc.serving.Add(-1)
	case bus.Control:
		// A cancel overtakes the request it revokes (Control skips the EDF
		// lane and passes pauseRequests barriers); record it so the request
		// is answered unserved when it surfaces, and reclaim the matching
		// stream producer if one is running.
		switch m.Op {
		case bus.OpCancel:
			rc.cancels.add(m.Src, m.Corr, time.Now().UnixNano())
			rc.cancelStream(m.Src, m.Corr)
		case bus.OpStreamCredit:
			rc.grantStream(m.Src, m.Corr, m.Payload)
		}
	}
}

// deliverReply is the endpoint's reply hook: the reply to one of this
// component's outcalls goes straight to the waiting handler. It runs under
// the route lock and takes only a waiter-table shard lock beneath it; the
// send never blocks because a waiter channel holds at most the one signal
// its registration routes.
func (rc *runtimeComponent) deliverReply(m bus.Message) {
	if w, ok := rc.waiters.take(m.Corr); ok {
		payload, _ := m.Payload.(connector.ReplyPayload)
		w <- payload
	}
}

// stop cancels the serve workers and waits for in-flight work. No transient
// server starts once stop has begun.
func (rc *runtimeComponent) stop() {
	rc.life.Lock()
	rc.running = false
	rc.life.Unlock()
	if rc.cancel != nil {
		rc.cancel()
	}
	rc.wg.Wait()
	// Detach from the weaver so later aspect interchanges stop recompiling
	// this component's chain (removeComponentLive would otherwise leak one
	// binding per removed component).
	rc.woven.Release()
	rc.sys.events.Emit(Event{Kind: EvComponentStopped, At: rc.sys.clk.Now(), Component: rc.name})
}

// serve handles one request end-to-end and replies to the caller: the
// message runs through the component's meta-object chain (if any), then the
// compiled aspect pipeline, then the container. Both pipelines are read as
// atomic snapshots, so a concurrent interchange never tears a chain under
// an in-flight request.
func (rc *runtimeComponent) serve(m bus.Message) {
	// Stream opens take their own path: the pre-serve checks are the same
	// but every rejection and the terminal reply are stream-end payloads,
	// and the container invocation hands the handler a flow-controlled
	// sink instead of collecting results.
	if open, ok := m.Payload.(connector.StreamOpenPayload); ok {
		rc.serveStream(&m, open)
		return
	}
	// A request whose caller's deadline already passed is answered with an
	// error instead of being served: the caller has returned and released
	// its waiter slot, so invoking the container would burn capacity on a
	// reply nobody reads. (The reply itself is still required — a mediating
	// connector correlates it to clean up its pending entry.) This check is
	// what makes a deadline propagated from another cluster node effective
	// on the callee. Deadlines carry wall-clock context semantics, hence
	// time.Now rather than the (possibly simulated) system clock.
	if m.Deadline != 0 && time.Now().UnixNano() > m.Deadline {
		rc.rejectUnserved(&m, "deadline exceeded before service", connector.ErrKindDeadline)
		return
	}
	// A request whose caller sent a cancel while it queued is likewise
	// answered without being served — the caller released its waiter slot
	// when it gave up.
	if rc.cancels.take(m.Src, m.Corr) {
		rc.rejectUnserved(&m, "canceled before service", connector.ErrKindCancelled)
		return
	}

	started := rc.sys.clk.Now()
	var (
		res any
		err error
	)
	if rc.meta.Len() == 0 {
		// Fast path: no meta-objects composed; invoke the woven chain
		// directly. (Kept free of closures so res and err stay off the
		// heap on the dominant path.)
		res, err = rc.invokeWoven(&m)
	} else {
		res, err = rc.invokeThroughMeta(m)
	}

	if errors.Is(err, container.ErrNotActive) {
		// The request raced a reconfiguration point: it was delivered to
		// the mailbox before the channel was blocked but reached the
		// container after quiescence. Requeue it — the bus parks it on
		// the paused channel and flushes it to the new implementation on
		// resume, preserving the no-loss guarantee. (The RAML always
		// pauses the channel before quiescing, so this cannot spin.)
		_ = rc.sys.bus.Send(m)
		return
	}

	// One clock read closes service: the end timestamp feeds the QoS monitor
	// (spans auto-feed the monitor — RecordAt reuses it instead of a second
	// clock read), stamps the served/failed event and, for traced requests,
	// closes the server span below.
	ended := rc.sys.clk.Now()
	endNs := ended.UnixNano()
	elapsed := ended.Sub(started)
	rc.sys.monitor.RecordAt(qos.Latency, endNs, elapsed.Seconds())
	rc.sys.monitor.RecordAt(qos.Throughput, endNs, 1)
	rc.adm.Observe(elapsed.Nanoseconds())

	reply := bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Src: rc.ep.Addr(), Dst: m.Src, Corr: m.Corr,
	}
	if tc, ok := m.Payload.(connector.TypedCall); ok {
		// Typed completion happens in place: the envelope already carries
		// the response (or receives the aspect-replaced results here), and
		// the reply message moves the same pointer back as a pure signal —
		// nothing is boxed on the return path either.
		if err == nil && res != typedServed {
			results, _ := res.([]any)
			if derr := tc.SetResults(results); derr != nil {
				err = fmt.Errorf("core: %s.%s: %w", rc.name, m.Op, derr)
			}
		}
		if err != nil {
			tc.Finish(err.Error(), errKindOf(err))
			rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: ended,
				Component: rc.name, Detail: m.Op + ": " + err.Error()})
		} else {
			tc.Finish("", connector.ErrKindNone)
			rc.sys.events.Emit(Event{Kind: EvRequestServed, At: ended,
				Component: rc.name, Detail: m.Op})
		}
		reply.Payload = m.Payload
	} else if err != nil {
		reply.Payload = connector.ReplyPayload{Err: err.Error(), Kind: errKindOf(err)}
		rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: ended,
			Component: rc.name, Detail: m.Op + ": " + err.Error()})
	} else {
		results, _ := res.([]any)
		reply.Payload = connector.ReplyPayload{Results: results}
		rc.sys.events.Emit(Event{Kind: EvRequestServed, At: ended,
			Component: rc.name, Detail: m.Op})
	}
	_ = rc.sys.bus.Send(reply)
	rc.recordServerSpan(&m, started.UnixNano(), endNs, outcomeOf(err))
}

// recordServerSpan closes the serving-side span of a traced request: it
// parents under the caller's span id carried in the message and splits the
// request's life into queue wait (send stamp → serve start) and service
// (serve start → end). Untraced requests record nothing.
func (rc *runtimeComponent) recordServerSpan(m *bus.Message, startNs, endNs int64, outcome telemetry.Outcome) {
	if m.Trace == 0 {
		return
	}
	queue := int64(0)
	if m.SentAt != 0 && startNs > m.SentAt {
		queue = startNs - m.SentAt
	}
	rc.sys.rec.Record(telemetry.Span{
		Trace:   m.Trace,
		ID:      telemetry.NextSpanID(),
		Parent:  telemetry.SpanID(m.Span),
		Start:   startNs,
		End:     endNs,
		Queue:   queue,
		Op:      m.Op,
		Comp:    rc.name,
		Dst:     rc.sys.NodeName(),
		Kind:    telemetry.KindServer,
		Outcome: outcome,
	})
}

// rejectUnserved answers a request without invoking the container: the
// caller is known to be gone (deadline lapsed or an explicit cancel), so
// serving would burn capacity on a reply nobody reads. The reply itself is
// still required — a mediating connector correlates it to clean up its
// pending entry — and carries the structured kind so identity survives
// relays.
func (rc *runtimeComponent) rejectUnserved(m *bus.Message, reason string, kind connector.ErrKind) {
	// One clock read stamps both the event and the span.
	now := rc.sys.clk.Now()
	rc.sys.events.Emit(Event{Kind: EvRequestFailed, At: now,
		Component: rc.name, Detail: m.Op + ": " + reason})
	reject := bus.Message{
		Kind: bus.Reply, Op: m.Op,
		Src: rc.ep.Addr(), Dst: m.Src, Corr: m.Corr,
	}
	msg := fmt.Sprintf("core: %s.%s: %s", rc.name, m.Op, reason)
	if tc, ok := m.Payload.(connector.TypedCall); ok {
		tc.Finish(msg, kind)
		reject.Payload = m.Payload
	} else {
		reject.Payload = connector.ReplyPayload{Err: msg, Kind: kind}
	}
	_ = rc.sys.bus.Send(reject)
	// A rejected request never entered service: its span is all queue wait
	// (Start == End), which is exactly what the queue/service split should
	// show for work shed after the caller gave up.
	rc.recordServerSpan(m, now.UnixNano(), now.UnixNano(), outcomeOfKind(kind))
}

// depth is this component's backlog: queued mailbox messages (both lanes,
// one atomic load) plus requests currently being served. The endpoint bumps
// serving before it lowers the depth mirror, both under the route lock, so
// reading the mirror first never misses a request between the two. It is
// the admission-control view and what a cross-node handoff drains on.
func (rc *runtimeComponent) depth() int64 {
	return rc.ep.Depth() + rc.serving.Load()
}

// invokeWoven runs one message through the component's compiled aspect
// pipeline into the container.
func (rc *runtimeComponent) invokeWoven(m *bus.Message) (any, error) {
	// The payload rides the invocation as-is: a boxed CallPayload or a typed
	// call envelope — the woven base closure dispatches on the dynamic type.
	inv := &aspects.Invocation{Component: rc.name, Op: m.Op, Args: m.Payload}
	return rc.woven.Invoke(inv)
}

// invokeThroughMeta wraps the woven invocation in the component's
// meta-object chain: wrappers may rewrite the message (modificatory), veto
// it by not calling next, and — because the base returns the invocation's
// error into the chain — observe, translate or suppress invocation
// failures. The chain's final error is authoritative for the reply.
func (rc *runtimeComponent) invokeThroughMeta(m bus.Message) (any, error) {
	var res any
	chainErr := rc.meta.Execute(&m, func(fm *bus.Message) error {
		r, err := rc.invokeWoven(fm)
		res = r
		return err
	})
	return res, chainErr
}

// Call implements Caller: route the outcall through the bound connector and
// wait for the correlated reply. Like the platform-edge Client, the
// steady-state path is mutex-free: the route table is an atomic snapshot and
// the reply waiter table is sharded by correlation id.
func (rc *runtimeComponent) Call(service string, args ...any) ([]any, error) {
	return rc.CallContext(context.Background(), service, args...)
}

// CallContext implements ContextCaller: Call governed by a context whose
// deadline is stamped into the outgoing request (propagating down the call
// chain, across peer links included) and whose cancellation releases the
// reply-waiter slot immediately.
func (rc *runtimeComponent) CallContext(ctx context.Context, service string, args ...any) ([]any, error) {
	dst, ok := (*rc.routes.Load())[service]
	if !ok {
		return nil, fmt.Errorf("core: component %s: required service %q is unbound", rc.name, service)
	}
	corr := rc.corr.Add(1)
	ow := outcallPool.Get().(*outcallWaiter)
	rc.waiters.add(corr, ow.w)

	m := bus.Message{
		Kind: bus.Request, Op: service,
		Payload: connector.CallPayload{Args: args},
		Src:     rc.ep.Addr(), Dst: dst, Corr: corr,
	}
	deadline, hasDeadline := ctx.Deadline()
	if hasDeadline {
		m.Deadline = deadline.UnixNano()
	}
	if err := rc.sys.bus.Send(m); err != nil {
		rc.waiters.take(corr)
		return nil, err
	}
	// The fallback timer is armed only when the context does not already
	// bound the wait, and always stopped: component outcalls are the inner
	// hot path of every fan-out, so a leaked timer per call would pile up
	// under load.
	var timerC <-chan time.Time
	if !hasDeadline {
		if ow.timer == nil {
			ow.timer = time.NewTimer(rc.sys.callTimeout)
		} else {
			ow.timer.Reset(rc.sys.callTimeout)
		}
		timerC = ow.timer.C
	}
	select {
	case payload := <-ow.w:
		if timerC != nil {
			ow.timer.Stop()
		}
		outcallPool.Put(ow)
		if payload.Err != "" {
			return nil, replyErrorKind(payload.Err, payload.Kind)
		}
		return payload.Results, nil
	case <-ctx.Done():
		rc.waiters.take(corr)
		if timerC != nil {
			ow.timer.Stop()
		}
		return nil, fmt.Errorf("core: call %s.%s: %w", rc.name, service, ctx.Err())
	case <-timerC:
		rc.waiters.take(corr)
		return nil, fmt.Errorf("core: call %s.%s timed out", rc.name, service)
	}
}

// outcallWaiter is the leased reply channel and fallback timer of one
// component outcall. It goes back to outcallPool only after its reply was
// received: a timed-out or cancelled waiter (or one whose send failed) is
// abandoned to the garbage collector, so a late reply can never land in a
// channel a later call reuses. The timer is created lazily and reused
// (go1.23+ timer semantics make Reset and Stop safe without draining).
type outcallWaiter struct {
	w     chan connector.ReplyPayload
	timer *time.Timer
}

var outcallPool = sync.Pool{New: func() any {
	return &outcallWaiter{w: make(chan connector.ReplyPayload, 1)}
}}
