package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"repro/internal/bus"
	"repro/internal/connector"
	"repro/internal/telemetry"
)

// This file is the invocation surface of the platform edge: a compiled
// client-binding handle. A Client is obtained once per component
// (System.Client), carries everything a call needs — destination address,
// presence, principal, deadline budget — and exposes a context-aware call
// family: Call (synchronous), Async (a *Future), Oneway (fire-and-forget).
// Call and Async run the one call implementation in typed.go, with []any as
// both request and response. Deadlines and cancellation thread end-to-end:
// the context's deadline is stamped into bus.Message metadata, carried
// across peer links in the wire call frame, and enforced on the remote
// callee, so an aborted cross-node call stops consuming callee capacity
// instead of burning its full fallback timeout.

// clientBinding is the compiled, shared half of a Client handle: component
// lookup across the local and remote views, done once and republished by the
// same copy-on-write machinery that maintains those views. The destination
// address never changes — location transparency keeps a component's canonical
// bus address stable across hot swaps, rebinds and live migrations — so the
// only mutable bit is presence.
type clientBinding struct {
	sys  *System
	name string
	dst  bus.Address
	// present is republished under s.mu whenever the component or remote
	// view changes (assembly, reconfiguration, migration, adoption,
	// eviction). The call path reads it with one atomic load: zero
	// re-resolution per call.
	present atomic.Bool
	// local points at the locally hosted runtime component, nil when the
	// component is remote or absent. Republished together with present; the
	// admission check (DESIGN.md §9) reads it with one atomic load to reach
	// the component's backlog and service-time estimator without any lookup.
	local atomic.Pointer[runtimeComponent]
}

// Client is a first-class binding handle to one named component. Handles are
// cheap, safe for concurrent use, and survive every intercession operation:
// a SwapImplementation, Rebind, Reconfigure or live cross-node migration
// republishes the handle's compiled state, and the next call routes to the
// new target. Obtain the canonical handle with System.Client and derive
// per-principal or per-budget variants with With.
type Client struct {
	b         *clientBinding
	principal string
	// budget is the fallback deadline applied when the call context carries
	// none; zero defers to Options.CallTimeout. Unlike the system fallback it
	// is propagated to the callee (it is an explicit contract of the handle).
	budget time.Duration
	// window is the stream credit window for Stream opens; zero means
	// DefaultStreamWindow.
	window int
	// boxed is this handle as a TypedClient over the identity codec: Call
	// and Async are thin wrappers over it. Built with the handle, never per
	// call.
	boxed TypedClient[[]any, []any]
}

// newClient builds a handle and its boxed typed view.
func newClient(b *clientBinding) *Client {
	c := &Client{b: b}
	c.boxed = TypedClient[[]any, []any]{c: c, codec: boxedCodec, pool: &boxedPool}
	return c
}

// CallOption configures a derived Client handle (see Client.With).
type CallOption func(*Client)

// WithPrincipal returns an option stamping every call of the derived handle
// with the given security principal. The principal travels end-to-end,
// including across peer links, so callee-side container authorization keeps
// working when the call entered the system on another cluster node.
func WithPrincipal(principal string) CallOption {
	return func(c *Client) { c.principal = principal }
}

// WithDeadline returns an option giving every call of the derived handle a
// deadline of d from its start when the call context carries none. The
// effective deadline (from the context or from d) is propagated with the
// request and enforced on the callee.
func WithDeadline(d time.Duration) CallOption {
	return func(c *Client) { c.budget = d }
}

// WithStreamWindow returns an option setting the credit window (in items)
// Stream opens of the derived handle request: the producer may have at most
// n un-consumed items in flight toward this consumer. Zero or negative
// restores DefaultStreamWindow; the window is clamped server-side to a
// sane maximum.
func WithStreamWindow(n int) CallOption {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.window = n
	}
}

// With derives a handle sharing this handle's compiled binding with the
// given options applied. Deriving is allocation-cheap but not free; derive
// once and reuse when the options are stable.
func (c *Client) With(opts ...CallOption) *Client {
	d := newClient(c.b)
	d.principal, d.budget, d.window = c.principal, c.budget, c.window
	for _, o := range opts {
		o(d)
	}
	return d
}

// Component returns the name of the component this handle is bound to.
func (c *Client) Component() string { return c.b.name }

// Client returns the canonical binding handle for a named component,
// compiling it on first use. The handle is cached: every later Client call
// for the same name returns the same handle via one atomic map load.
//
// A handle may be obtained before its component exists (calls fail with
// ErrUnknownComp until a reconfiguration introduces it) and outlives
// removal the same way — handles are bound to the name, not the instance.
// Only handles for currently-resolvable components are cached, though:
// unknown names get an uncached handle that re-resolves per call, so
// probing arbitrary names (a misbehaving peer, per-request dynamic names)
// cannot grow the handle table or tax the
// refresh that runs inside reconfiguration critical sections.
func (s *System) Client(component string) *Client {
	if cl := (*s.clients.Load())[component]; cl != nil {
		return cl
	}
	return s.compileClient(component)
}

// compileClient is the slow path of Client: materialize and publish the
// canonical handle under s.mu (or hand out an uncached one for a name that
// does not resolve).
func (s *System) compileClient(component string) *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl := (*s.clients.Load())[component]; cl != nil {
		return cl
	}
	cl := newClient(&clientBinding{sys: s, name: component, dst: ComponentAddress(component)})
	if !s.resolvableLocked(component) {
		// Unresolvable now: present stays false and the call path falls
		// back to resolveNow against the live views, so this handle turns
		// valid the moment a reconfiguration introduces the component —
		// without ever occupying a slot in the refreshed table.
		return cl
	}
	cl.b.present.Store(true)
	cl.b.local.Store(s.comps[component])
	next := maps.Clone(*s.clients.Load())
	next[component] = cl
	s.clients.Store(&next)
	return cl
}

// resolveNow is the uncached-handle fallback: one lookup per view. For
// cached handles it is only consulted when present is false, where it
// agrees with the refresh invariant by construction.
func (b *clientBinding) resolveNow() bool {
	if _, ok := (*b.sys.compView.Load())[b.name]; ok {
		return true
	}
	_, ok := (*b.sys.remoteView.Load())[b.name]
	return ok
}

// resolvableLocked reports whether a component is reachable, locally or
// through a peer gateway; callers hold s.mu (or own the system exclusively).
func (s *System) resolvableLocked(component string) bool {
	if _, ok := s.comps[component]; ok {
		return true
	}
	_, ok := (*s.remoteView.Load())[component]
	return ok
}

// refreshClientsLocked republishes the presence bit of every compiled
// binding; called wherever the component or remote view changes, under the
// same critical section, so a handle is never stale relative to the views.
func (s *System) refreshClientsLocked() {
	for _, cl := range *s.clients.Load() {
		cl.b.present.Store(s.resolvableLocked(cl.b.name))
		cl.b.local.Store(s.comps[cl.b.name])
	}
}

// PendingCalls reports how many platform-edge calls are awaiting replies —
// the size of the correlation-sharded reply-waiter table. A cancelled or
// timed-out call releases its slot immediately, so under a cancellation
// storm this returns to zero as soon as the storm ends; a leak here is a
// bug (see the regression test in client_test.go).
func (s *System) PendingCalls() int {
	return s.clientWaiters.outstanding()
}

// Call invokes op synchronously and returns the callee's results. The
// context governs the call end-to-end: its deadline is stamped into the
// request, carried across peer links, and enforced on the callee;
// cancellation returns immediately and releases the reply-waiter slot. A
// context without a deadline falls back to the handle's WithDeadline budget,
// then to Options.CallTimeout.
func (c *Client) Call(ctx context.Context, op string, args ...any) ([]any, error) {
	return c.boxed.Call(ctx, op, args)
}

// timeoutError is the caller-side timer error. A WithDeadline budget is an
// explicit deadline contract (it was stamped into the request), so its
// expiry carries context.DeadlineExceeded identity exactly like a context
// deadline — whichever side notices first, errors.Is agrees. The plain
// system fallback is a local liveness bound, not a deadline the callee
// ever saw, and stays a plain error.
func (c *Client) timeoutError(op string) error {
	if c.budget > 0 {
		return fmt.Errorf("core: call %s.%s: %w", c.b.name, op, context.DeadlineExceeded)
	}
	return fmt.Errorf("core: call %s.%s timed out", c.b.name, op)
}

// Async invokes op without waiting: the returned Future resolves on Wait.
// The reply-waiter slot is bounded even if Wait is never called — the
// effective deadline (context, budget or fallback) releases it — and
// context cancellation releases it immediately, awaited or not.
func (c *Client) Async(ctx context.Context, op string, args ...any) *Future {
	return c.boxed.Async(ctx, op, args)
}

// Future is one in-flight asynchronous untyped call (Client.Async).
type Future = TypedFuture[[]any, []any]

// Oneway sends op without expecting a result: no reply-waiter slot is
// registered, and the eventual reply is discarded at the platform edge. The
// context's deadline still propagates, so a queued one-way request expires
// instead of being served pointlessly. The returned error covers local
// admission only (unknown component, stopped system, done context, full
// mailbox). A component removed mid-flight — after admission resolved the
// handle but before the request landed — reports ErrNoSuchComponent rather
// than silently dropping: the send either fails against the detached
// endpoint or parks on a route whose component is gone, and both shapes are
// detected here.
func (c *Client) Oneway(ctx context.Context, op string, args ...any) error {
	ep, corr, dl, tr, err := c.admit(ctx, op)
	if err != nil {
		return err
	}
	b := c.b
	payload := connector.CallPayload{Principal: c.principal, Args: args}
	if err := b.sys.bus.Send(c.request(payload, ep, corr, dl, tr, op)); err != nil {
		if errors.Is(err, bus.ErrUnknownDst) {
			return fmt.Errorf("%w: %s", ErrNoSuchComponent, b.name)
		}
		return err
	}
	// Re-check presence after the send: a removal that raced the admission
	// check has already republished the handle table, so a request that was
	// accepted onto a paused or torn-down route is reported, not dropped.
	if !b.present.Load() && !b.resolveNow() {
		return fmt.Errorf("%w: %s", ErrNoSuchComponent, b.name)
	}
	// A one-way call has no reply edge, so its root span closes at the
	// send: the record marks where the trace entered the system, and the
	// serving side's span (parented to it) carries the service story.
	c.recordEdgeSpan(tr, op, telemetry.KindClient, telemetry.OutcomeOK)
	return nil
}

// admit is the shared admission prologue of every call shape: liveness,
// compiled-binding presence (with the uncached fallback), the done-context
// check, the deadline-aware admission decision and the endpoint shard pick.
// Kept in one place so the call shapes cannot drift.
//
// The returned deadline (unix nanos, 0 when none) is what gets stamped into
// the request: the context's when present, else now+budget when the handle
// carries one, else zero (the system fallback bounds the caller's wait but
// is not an explicit contract, so it is not imposed on the callee).
//
// The admission check (DESIGN.md §9) runs only for deadline-carrying calls
// toward a locally hosted component: when the component's estimated queueing
// delay — EWMA service time × backlog depth — already exceeds the remaining
// budget, the call is shed with the bare ErrOverloaded sentinel before any
// resource is committed: no waiter slot, no message, no goroutine, no
// allocation.
func (c *Client) admit(ctx context.Context, op string) (*bus.Endpoint, uint64, int64, traceRef, error) {
	b := c.b
	s := b.sys
	if !s.live.Load() {
		return nil, 0, 0, traceRef{}, ErrNotRunning
	}
	if !b.present.Load() && !b.resolveNow() {
		return nil, 0, 0, traceRef{}, fmt.Errorf("%w: %s", ErrUnknownComp, b.name)
	}
	epsp := s.clientEPs.Load()
	if epsp == nil {
		return nil, 0, 0, traceRef{}, ErrNotRunning
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, 0, traceRef{}, fmt.Errorf("core: call %s.%s: %w", b.name, op, err)
	}
	var dl, now int64
	if d, ok := ctx.Deadline(); ok {
		dl = d.UnixNano()
	} else if c.budget > 0 {
		now = time.Now().UnixNano()
		dl = now + int64(c.budget)
	}
	if dl != 0 && !s.noOverload {
		if local := b.local.Load(); local != nil {
			if now == 0 {
				now = time.Now().UnixNano()
			}
			if rem := dl - now; rem > 0 && !local.adm.Admit(local.depth(), rem) {
				return nil, 0, 0, traceRef{}, ErrOverloaded
			}
		}
	}
	// The trace root starts only for calls that pass admission: the shed
	// path's zero-allocation, ~100ns contract stays untouched, and shed
	// rates are observable through the snapshot's admission section anyway.
	tr := c.traceStart(ctx, now)
	corr := s.clientCorr.Add(1)
	return (*epsp)[corr&(clientEndpoints-1)], corr, dl, tr, nil
}

// request assembles the admitted request message, deadline and trace
// context stamped.
func (c *Client) request(payload any, ep *bus.Endpoint, corr uint64, dl int64, tr traceRef, op string) bus.Message {
	return bus.Message{
		Kind: bus.Request, Op: op, Payload: payload,
		Src: ep.Addr(), Dst: c.b.dst, Corr: corr,
		Trace: tr.trace, Span: tr.span, Deadline: dl,
	}
}

// cancelCallee tells the callee — and any mediating gateway on the way, which
// relays it across the peer link as a wire cancel frame — that the caller
// abandoned corr, so queued or in-service work for it can be reclaimed
// immediately. Best-effort: a lost cancel only costs the reclamation, never
// correctness. Deadline expiry needs no cancel — the lapsed deadline itself
// revokes the work at every queueing point — so only aborts before the
// stamped deadline (early context cancellation, fallback timeouts on
// deadline-less calls) send one.
func (c *Client) cancelCallee(corr uint64, dl int64) {
	if dl != 0 && time.Now().UnixNano() >= dl {
		return
	}
	s := c.b.sys
	epsp := s.clientEPs.Load()
	if epsp == nil {
		return
	}
	ep := (*epsp)[corr&(clientEndpoints-1)]
	_ = s.bus.Send(bus.Message{
		Kind: bus.Control, Op: bus.OpCancel,
		Src: ep.Addr(), Dst: c.b.dst, Corr: corr,
	})
}

// fallback is the wait bound applied when the context has no deadline.
func (c *Client) fallback() time.Duration {
	if c.budget > 0 {
		return c.budget
	}
	return c.b.sys.callTimeout
}

// ErrNoSuchComponent is the structured identity of a call addressed to a
// component that does not exist (anymore). It is the same error value as
// ErrUnknownComp — the name the platform edge documents — so errors.Is
// matches under either name, including for kinds carried across peer links.
var ErrNoSuchComponent = ErrUnknownComp

// errKindOf classifies a serve-side error into the structured kind carried
// on reply payloads and on the wire.
func errKindOf(err error) connector.ErrKind {
	switch {
	case err == nil:
		return connector.ErrKindNone
	case errors.Is(err, context.DeadlineExceeded):
		return connector.ErrKindDeadline
	case errors.Is(err, context.Canceled):
		return connector.ErrKindCancelled
	case errors.Is(err, ErrUnknownComp):
		return connector.ErrKindNoSuchComponent
	case errors.Is(err, ErrOverloaded):
		return connector.ErrKindOverloaded
	default:
		return connector.ErrKindApp
	}
}

// replyErrorKind converts a reply payload into the caller-facing error.
// A structured kind (stamped by the serving side, locally or on a peer)
// restores error identity; payloads without one — filter rejects, app
// errors — are plain errors carrying the message.
func replyErrorKind(msg string, kind connector.ErrKind) error {
	switch kind {
	case connector.ErrKindDeadline, connector.ErrKindCancelled,
		connector.ErrKindNoSuchComponent, connector.ErrKindOverloaded:
		return &kindedError{msg: msg, kind: kind}
	}
	return errors.New(msg)
}

// kindedError is a reply error carrying structured identity.
type kindedError struct {
	msg  string
	kind connector.ErrKind
}

func (e *kindedError) Error() string { return e.msg }

func (e *kindedError) Is(target error) bool {
	switch e.kind {
	case connector.ErrKindDeadline:
		return target == context.DeadlineExceeded
	case connector.ErrKindCancelled:
		return target == context.Canceled
	case connector.ErrKindNoSuchComponent:
		return target == ErrUnknownComp
	case connector.ErrKindOverloaded:
		return target == ErrOverloaded
	}
	return false
}
