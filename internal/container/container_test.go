package container

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// counter is a stateful test component with snapshot support.
type counter struct {
	mu sync.Mutex
	N  int
	// failOn makes Handle fail for a given op.
	failOn string
	// block lets tests hold a call in flight.
	block chan struct{}
}

func (c *counter) Handle(op string, args []any) ([]any, error) {
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if op == c.failOn {
		c.N++ // mutate before failing, so rollback is observable
		return nil, fmt.Errorf("op %s failed", op)
	}
	c.N++
	return []any{c.N}, nil
}

func (c *counter) Snapshot() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Marshal(c.N)
}

func (c *counter) Restore(b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return json.Unmarshal(b, &c.N)
}

func active(t *testing.T, desc Descriptor, comp Component) *Container {
	t.Helper()
	c, err := New(desc, comp)
	if err != nil {
		t.Fatal(err)
	}
	c.Activate()
	return c
}

func TestInvokeLifecycle(t *testing.T) {
	c, err := New(Descriptor{Name: "x"}, &counter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("", "inc", nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("inactive invoke err = %v", err)
	}
	c.Activate()
	res, err := c.Invoke("", "inc", nil)
	if err != nil || res[0].(int) != 1 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	calls, failures := c.Stats()
	if calls != 1 || failures != 0 {
		t.Fatalf("stats = %d/%d", calls, failures)
	}
}

func TestRequireAuth(t *testing.T) {
	c := active(t, Descriptor{Name: "x", RequireAuth: true}, &counter{})
	if _, err := c.Invoke("", "inc", nil); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Invoke("alice", "inc", nil); err != nil {
		t.Fatalf("authorized call failed: %v", err)
	}
}

func TestAuditLog(t *testing.T) {
	comp := &counter{failOn: "bad"}
	c := active(t, Descriptor{Name: "x", Audit: true}, comp)
	_, _ = c.Invoke("alice", "inc", nil)
	_, _ = c.Invoke("bob", "bad", nil)
	log := c.AuditLog()
	if len(log) != 2 {
		t.Fatalf("log = %v", log)
	}
	if log[0].Principal != "alice" || log[0].Err != "" {
		t.Errorf("log[0] = %+v", log[0])
	}
	if log[1].Op != "bad" || log[1].Err == "" {
		t.Errorf("log[1] = %+v", log[1])
	}
}

func TestTransactionalRollback(t *testing.T) {
	comp := &counter{failOn: "bad"}
	c := active(t, Descriptor{Name: "x", Transactional: true}, comp)
	_, _ = c.Invoke("", "inc", nil) // N=1
	if _, err := c.Invoke("", "bad", nil); err == nil {
		t.Fatal("expected failure")
	}
	// The failed call mutated N to 2, but the transaction restored 1.
	if comp.N != 1 {
		t.Fatalf("N = %d, want rollback to 1", comp.N)
	}
	_, failures := c.Stats()
	if failures != 1 {
		t.Fatalf("failures = %d", failures)
	}
}

type plain struct{}

func (plain) Handle(string, []any) ([]any, error) { return nil, nil }

func TestTransactionalDemandsCapturer(t *testing.T) {
	if _, err := New(Descriptor{Transactional: true}, plain{}); !errors.Is(err, ErrNotCapturable) {
		t.Fatalf("err = %v", err)
	}
}

func TestNilComponent(t *testing.T) {
	if _, err := New(Descriptor{}, nil); err == nil {
		t.Fatal("nil component accepted")
	}
}

// typedEcho serves "echo" both ways; HandleTyped asserts its request type
// blindly, as typed components may.
type typedEcho struct{ handled, handledTyped int }

func (e *typedEcho) Handle(op string, args []any) ([]any, error) {
	e.handled++
	return []any{args[0]}, nil
}

func (e *typedEcho) HandleTyped(op string, req, resp any) error {
	e.handledTyped++
	*resp.(*string) = *req.(*string)
	return nil
}

// fakeTypedRequest is a TypedRequest whose Req may be nil (no typed form).
type fakeTypedRequest struct {
	req  any
	resp string
	args []any
}

func (f *fakeTypedRequest) Req() any                   { return f.req }
func (f *fakeTypedRequest) Resp() any                  { return &f.resp }
func (f *fakeTypedRequest) Args() []any                { return f.args }
func (f *fakeTypedRequest) SetResults(res []any) error { return nil }

func TestInvokeTypedNilReqServedByHandle(t *testing.T) {
	comp := &typedEcho{}
	c := active(t, Descriptor{Name: "echo"}, comp)

	res, typed, err := c.InvokeTyped("", "echo", &fakeTypedRequest{args: []any{"boxed"}})
	if err != nil || typed || len(res) != 1 || res[0] != "boxed" {
		t.Fatalf("nil Req: res=%v typed=%v err=%v, want Handle's [boxed]", res, typed, err)
	}
	if comp.handled != 1 || comp.handledTyped != 0 {
		t.Fatalf("nil Req reached HandleTyped: handled=%d handledTyped=%d", comp.handled, comp.handledTyped)
	}

	in := "typed"
	call := &fakeTypedRequest{req: &in}
	if res, typed, err := c.InvokeTyped("", "echo", call); err != nil || !typed || res != nil || call.resp != "typed" {
		t.Fatalf("typed Req: res=%v typed=%v err=%v resp=%q", res, typed, err, call.resp)
	}
	if comp.handled != 1 || comp.handledTyped != 1 {
		t.Fatalf("typed Req: handled=%d handledTyped=%d", comp.handled, comp.handledTyped)
	}
}

func TestQuiesceImmediateWhenIdle(t *testing.T) {
	c := active(t, Descriptor{Name: "x"}, &counter{})
	if err := c.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.State() != Passive {
		t.Fatalf("state = %v", c.State())
	}
	// Quiescing twice is idempotent.
	if err := c.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke("", "inc", nil); !errors.Is(err, ErrNotActive) {
		t.Fatalf("passive container accepted a call: %v", err)
	}
}

func TestQuiesceWaitsForInflight(t *testing.T) {
	comp := &counter{block: make(chan struct{})}
	c := active(t, Descriptor{Name: "x"}, comp)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Invoke("", "inc", nil)
	}()
	// Wait until the call is in flight.
	for {
		c.mu.Lock()
		in := c.inflight
		c.mu.Unlock()
		if in == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- c.Quiesce(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("quiesce returned before in-flight call finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(comp.block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if c.State() != Passive {
		t.Fatalf("state = %v", c.State())
	}
}

func TestQuiesceTimeoutRollsBackToActive(t *testing.T) {
	comp := &counter{block: make(chan struct{})}
	c := active(t, Descriptor{Name: "x"}, comp)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Invoke("", "inc", nil)
	}()
	for {
		c.mu.Lock()
		in := c.inflight
		c.mu.Unlock()
		if in == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.Quiesce(ctx); err == nil {
		t.Fatal("quiesce should time out")
	}
	if c.State() != Active {
		t.Fatalf("state after failed quiesce = %v, want Active", c.State())
	}
	close(comp.block)
	wg.Wait()
}

func TestReplaceComponentWithStateTransfer(t *testing.T) {
	v1 := &counter{}
	c := active(t, Descriptor{Name: "x"}, v1)
	for i := 0; i < 5; i++ {
		_, _ = c.Invoke("", "inc", nil)
	}
	if err := c.ReplaceComponent(&counter{}, true); err == nil {
		t.Fatal("replace while Active should fail")
	}
	if err := c.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	v2 := &counter{}
	if err := c.ReplaceComponent(v2, true); err != nil {
		t.Fatal(err)
	}
	c.Activate()
	res, err := c.Invoke("", "inc", nil)
	if err != nil || res[0].(int) != 6 {
		t.Fatalf("state not transferred: res=%v err=%v", res, err)
	}
}

func TestReplaceWithoutTransferResetsState(t *testing.T) {
	v1 := &counter{}
	c := active(t, Descriptor{Name: "x"}, v1)
	_, _ = c.Invoke("", "inc", nil)
	if err := c.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	v2 := &counter{}
	if err := c.ReplaceComponent(v2, false); err != nil {
		t.Fatal(err)
	}
	c.Activate()
	res, _ := c.Invoke("", "inc", nil)
	if res[0].(int) != 1 {
		t.Fatalf("weak reconfiguration should start fresh, got %v", res)
	}
}

func TestReplaceTransferDemandsCapturers(t *testing.T) {
	c := active(t, Descriptor{Name: "x"}, &counter{})
	if err := c.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceComponent(plain{}, true); !errors.Is(err, ErrNotCapturable) {
		t.Fatalf("err = %v", err)
	}
}

func TestSnapshotPassthrough(t *testing.T) {
	comp := &counter{N: 42}
	c := active(t, Descriptor{Name: "x"}, comp)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := json.Unmarshal(snap, &n); err != nil || n != 42 {
		t.Fatalf("snapshot = %s err=%v", snap, err)
	}
	c2 := active(t, Descriptor{Name: "y"}, plain{})
	if _, err := c2.Snapshot(); !errors.Is(err, ErrNotCapturable) {
		t.Fatalf("err = %v", err)
	}
}

func TestLifecycleStrings(t *testing.T) {
	for s, want := range map[LifecycleState]string{
		Inactive: "inactive", Active: "active", Quiescing: "quiescing",
		Passive: "passive", LifecycleState(0): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}
