package bus

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplyHookTakesRepliesInPlace: a Reply to an endpoint with a reply
// hook reaches the hook and never the mailbox, yet counts as delivered and
// received and still passes the per-source sequence check; other kinds
// keep queueing.
func TestReplyHookTakesRepliesInPlace(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	var got []uint64
	dst.SetReplyFunc(func(m Message) { got = append(got, m.Corr) })
	for i := 1; i <= 3; i++ {
		if err := b.Send(Message{Kind: Reply, Src: "src", Dst: "dst", Corr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(Message{Kind: Request, Src: "src", Dst: "dst", Corr: 9}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("hook saw %v, want [1 2 3]", got)
	}
	if n := dst.Len(); n != 1 {
		t.Fatalf("mailbox holds %d, want only the request", n)
	}
	if dst.Received() != 4 {
		t.Fatalf("received = %d, want 4", dst.Received())
	}
	if dups, reorders := dst.Anomalies(); dups != 0 || reorders != 0 {
		t.Fatalf("anomalies dups=%d reorders=%d", dups, reorders)
	}
	if st := b.Stats(); st.Sent != 4 || st.Delivered != 4 {
		t.Fatalf("stats %+v, want sent=delivered=4", st)
	}
}

// TestReplyHookPausedRouteParksThenResumeDelivers: a fully paused route
// still holds a reply, and Resume hands it to the hook, keeping
// Sent == Delivered + Dropped + Held exact at every step.
func TestReplyHookPausedRouteParksThenResumeDelivers(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	var hooked atomic.Int64
	dst.SetReplyFunc(func(Message) { hooked.Add(1) })
	b.Pause("dst")
	for i := 0; i < 5; i++ {
		if err := b.Send(Message{Kind: Reply, Src: "src", Dst: "dst", Corr: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if hooked.Load() != 0 || b.HeldCount("dst") != 5 {
		t.Fatalf("paused: hooked=%d held=%d, want 0/5", hooked.Load(), b.HeldCount("dst"))
	}
	if n, err := b.Resume("dst"); n != 5 || err != nil {
		t.Fatalf("resume = %d, %v", n, err)
	}
	if hooked.Load() != 5 || dst.Len() != 0 {
		t.Fatalf("resumed: hooked=%d queued=%d, want 5/0", hooked.Load(), dst.Len())
	}
	if st := b.Stats(); st.Sent != st.Delivered+st.Dropped+st.Held || st.Delivered != 5 {
		t.Fatalf("conservation broken: %+v", st)
	}
}

// TestServeHooksCountAndBacklog: a dequeued Request is counted in serving
// (Control is not), and the backlog hook runs exactly when an enqueue
// leaves more queued than receivers parked.
func TestServeHooksCountAndBacklog(t *testing.T) {
	b := New()
	dst := attach(t, b, "dst")
	var serving atomic.Int64
	var backlogs atomic.Int64
	dst.SetServeHooks(&serving, func() { backlogs.Add(1) })

	// No receiver parked: every enqueue is a backlog.
	_ = b.Send(Message{Kind: Request, Src: "src", Dst: "dst"})
	_ = b.Send(Message{Kind: Control, Src: "src", Dst: "dst"})
	if backlogs.Load() != 2 {
		t.Fatalf("backlog ran %d times, want 2", backlogs.Load())
	}
	for i := 0; i < 2; i++ {
		if _, ok := dst.TryReceive(); !ok {
			t.Fatal("mailbox empty")
		}
	}
	if serving.Load() != 1 {
		t.Fatalf("serving = %d, want 1 (the request, not the control)", serving.Load())
	}

	// Two parked receivers cover two enqueues; a third is a backlog.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = dst.Receive(ctx)
		}()
	}
	waitFor(t, func() bool {
		dst.mu.Lock()
		defer dst.mu.Unlock()
		return dst.waiting == 2
	})
	backlogs.Store(0)
	dst.mu.Lock()
	for i := 0; i < 3; i++ {
		dst.enqueueLocked(&Message{Kind: Request, Src: "src", Dst: "dst", Seq: uint64(i + 10)})
	}
	dst.mu.Unlock()
	if backlogs.Load() != 1 {
		t.Fatalf("backlog ran %d times with two receivers parked, want 1", backlogs.Load())
	}
	wg.Wait()
	if _, ok := dst.TryReceive(); !ok {
		t.Fatal("third request missing")
	}
	if serving.Load() != 4 {
		t.Fatalf("serving = %d, want 4", serving.Load())
	}
}

// TestServeHooksDepthNeverMissesConcurrent: with senders and receivers
// racing, the lock-free sum depth + serving never misses a request that
// was enqueued and has not finished service — the property admission
// control and the cross-node drain rely on.
func TestServeHooksDepthNeverMissesConcurrent(t *testing.T) {
	const (
		senders   = 4
		perSender = 2000
		receivers = 4
	)
	b := New()
	dst := attach(t, b, "dst")
	var serving, enqueued, finished atomic.Int64
	dst.SetServeHooks(&serving, func() {})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rwg sync.WaitGroup
	for i := 0; i < receivers; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				if _, err := dst.Receive(ctx); err != nil {
					return
				}
				// A server finishes before it leaves the serving count.
				finished.Add(1)
				serving.Add(-1)
			}
		}()
	}
	var swg sync.WaitGroup
	for s := 0; s < senders; s++ {
		swg.Add(1)
		go func(src Address) {
			defer swg.Done()
			for i := 0; i < perSender; i++ {
				for b.Send(Message{Kind: Request, Src: src, Dst: "dst"}) != nil {
					time.Sleep(10 * time.Microsecond)
				}
				enqueued.Add(1)
			}
		}(Address(rune('a' + s)))
	}
	stop := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Every request counted in e was queued before e was read; by
			// the later reads it is still queued (d), popped and serving
			// (s — counted before the depth mirror dropped), or finished
			// (f — counted before serving dropped).
			e := enqueued.Load()
			d := dst.Depth()
			s := serving.Load()
			f := finished.Load()
			if d+s+f < e {
				t.Errorf("depth %d + serving %d + finished %d < enqueued %d", d, s, f, e)
				return
			}
		}
	}()
	swg.Wait()
	waitFor(t, func() bool { return finished.Load() == senders*perSender })
	close(stop)
	<-checked
	cancel()
	rwg.Wait()
	if serving.Load() != 0 || dst.Depth() != 0 {
		t.Fatalf("idle: serving=%d depth=%d, want 0/0", serving.Load(), dst.Depth())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
