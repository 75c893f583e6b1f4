// Self-call no-deadlock regressions: a component's serve side must give
// every queued request a server at once, however many of its pool workers
// are blocked inside handlers. Two shapes pin it: re-entrant calls that
// come back to the same component through connectors, and a handler that
// only returns once more calls are inside it than the pool has workers.
package aas_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	aas "repro"
)

const recursionADL = `
system Recursion {
  component A {
    provide f(n) -> (depth)
    require g(n) -> (depth)
  }
  component B {
    provide g(n) -> (depth)
    require f(n) -> (depth)
  }
  connector AtoB { kind rpc }
  connector BtoA { kind rpc }
  bind A.g -> B.g via AtoB
  bind B.f -> A.f via BtoA
}
`

// bouncer answers its op by calling next with n-1 until n reaches 0, and
// returns how many hops it took from there.
type bouncer struct {
	next   string
	caller aas.Caller
}

func (b *bouncer) SetCaller(c aas.Caller) { b.caller = c }

func (b *bouncer) Handle(op string, args []any) ([]any, error) {
	n := args[0].(int)
	if n == 0 {
		return []any{0}, nil
	}
	res, err := b.caller.Call(b.next, n-1)
	if err != nil {
		return nil, err
	}
	return []any{res[0].(int) + 1}, nil
}

// TestSelfCallMutualRecursion drives A.f → B.g → A.f … nine hops deep from
// 16 concurrent callers: each chain holds about five requests in service on
// each component, far more than the serve pool, all blocked on outcalls
// that come back to the same two mailboxes.
func TestSelfCallMutualRecursion(t *testing.T) {
	const (
		depth   = 9
		callers = 16
		rounds  = 50
	)
	reg := aas.NewRegistry()
	reg.MustRegister("A", "1.0", nil, func() any { return &bouncer{next: "g"} })
	reg.MustRegister("B", "1.0", nil, func() any { return &bouncer{next: "f"} })
	sys, err := aas.Load(recursionADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	a := sys.Client("A")
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				res, err := a.Call(ctx, "f", depth)
				switch {
				case err != nil:
					errs <- err
				case res[0] != depth:
					errs <- fmt.Errorf("chain returned %v hops, want %d", res[0], depth)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// gate is a component whose handler returns only once need calls are
// inside it at the same time; a call that waits longer than 2s fails.
type gate struct {
	need int

	mu      sync.Mutex
	arrived int
	open    chan struct{}
}

func (g *gate) Handle(op string, args []any) ([]any, error) {
	g.mu.Lock()
	open := g.open
	g.arrived++
	if g.arrived == g.need {
		close(open)
		g.arrived = 0
		g.open = make(chan struct{})
	}
	g.mu.Unlock()
	timer := time.NewTimer(2 * time.Second)
	defer timer.Stop()
	select {
	case <-open:
		return []any{"ok"}, nil
	case <-timer.C:
		return nil, errors.New("gate: fewer than the needed calls inside at once after 2s")
	}
}

const gateADL = `
system Gate {
  component Gate {
    provide pass() -> (status)
  }
}
`

// TestSelfCallGateBeyondWorkers needs 6 calls inside one handler at once —
// more than the component's persistent serve workers — for 20 rounds. A
// serve side that leaves a queued request waiting for a busy worker never
// opens the gate.
func TestSelfCallGateBeyondWorkers(t *testing.T) {
	const (
		callers = 6
		rounds  = 20
	)
	reg := aas.NewRegistry()
	reg.MustRegister("Gate", "1.0", nil, func() any {
		return &gate{need: callers, open: make(chan struct{})}
	})
	sys, err := aas.Load(gateADL, aas.Options{Registry: reg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	g := sys.Client("Gate")
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := g.Call(ctx, "pass"); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
