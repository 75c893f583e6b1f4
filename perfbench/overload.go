package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	aas "repro"
)

// Offered load of the overload workload, fixed in calls per second: 0.7x
// and 4x Busy's nominal capacity of busySlots/busyService = 800/s. They are
// not scaled from a measured capacity, so every commit is offered the same
// load.
var overloadRates = []float64{560, 3200}

// overloadBudget is every call's deadline: three service times.
const overloadBudget = 3 * busyService

// overloadWorkers bounds the calls in flight. At the high rate a call holds
// a worker for at most its budget, so 3200/s x 15 ms = 48 workers are busy
// on average; 128 leave headroom for bursts of the Poisson schedule.
const overloadWorkers = 128

// overloadInputs is the seeded arrival schedule: due offsets from the start
// of the window, phase by phase.
type overloadInputs struct {
	due   [][]time.Duration // per rate
	total int
}

func genOverload(seed int64, window time.Duration) *overloadInputs {
	r := rand.New(rand.NewSource(seed))
	in := &overloadInputs{}
	phase := window / time.Duration(len(overloadRates))
	for i, rate := range overloadRates {
		due := arrivals(r, rate, time.Duration(i)*phase, phase)
		in.due = append(in.due, due)
		in.total += len(due)
	}
	return in
}

type overloadSession struct {
	in           *overloadInputs
	sys          *aas.System
	busy         *busy
	cl           *aas.Client // budgeted
	servedBefore int64       // Busy's served count when the window opened
}

func buildOverload(in *overloadInputs, traced bool) (*overloadSession, error) {
	s := &overloadSession{in: in}
	reg := aas.NewRegistry()
	reg.MustRegister("Busy", "1.0", nil, func() any {
		s.busy = &busy{slots: make(chan struct{}, busySlots), patience: 2 * overloadBudget}
		return s.busy
	})
	opts := aas.Options{Registry: reg.Registry}
	if traced {
		opts.TraceBuffer = tracedBuffer
	}
	sys, err := aas.Load(overloadADL, opts)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := sys.Start(bg); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	s.sys = sys
	plain := sys.Client("Busy")
	s.cl = plain.With(aas.WithDeadline(overloadBudget))
	if _, err := plain.Call(bg, "work", "x"); err != nil {
		sys.Stop()
		return nil, fmt.Errorf("first call: %w", err)
	}
	return s, nil
}

func (s *overloadSession) nodes() []node { return []node{{sys: s.sys}} }

func (s *overloadSession) close() { s.sys.Stop() }

// warm saturates the slots closed-loop, unbudgeted, so the admission
// estimator has learned the service time before the schedule starts.
func (s *overloadSession) warm() error {
	plain := s.sys.Client("Busy")
	var wg sync.WaitGroup
	errs := make(chan error, 2*busySlots)
	end := time.Now().Add(warmup)
	for w := 0; w < 2*busySlots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				if _, err := plain.Call(bg, "work", "x"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// rateRecord is the outcome of one rate's calls.
type rateRecord struct {
	rate      float64
	seconds   float64
	lat       hist // from due time, successful calls
	attempted uint64
	ok, good  uint64
	kinds     [numKinds]uint64
}

type overloadJob struct {
	due   time.Time
	phase int
}

func (s *overloadSession) drive(o *outcome, start, end time.Time, traced bool) error {
	s.servedBefore = s.busy.served.Load()
	// The buffer holds a full second of the high rate, so a stalled worker
	// pool shows as lateness of calls, never as a blocked generator.
	jobs := make(chan overloadJob, 4096)
	var (
		mu    sync.Mutex
		rates = make([]rateRecord, len(overloadRates))
		late  hist
		spans []benchSpan
		other error
	)
	phaseLen := end.Sub(start) / time.Duration(len(overloadRates))
	for i := range rates {
		rates[i].rate, rates[i].seconds = overloadRates[i], phaseLen.Seconds()
	}
	var wg sync.WaitGroup
	for w := 0; w < overloadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				t0 := time.Now()
				_, err := s.cl.Call(bg, "work", "x")
				t1 := time.Now()
				lat, _ := openLoopTimes(j.due.UnixNano(), t0.UnixNano(), t1.UnixNano())
				mu.Lock()
				r := &rates[j.phase]
				r.attempted++
				if traced {
					spans = append(spans, benchSpan{start: t0.UnixNano(), end: t1.UnixNano(), kind: spanClientCall, ok: err == nil})
				}
				if err == nil {
					r.ok++
					r.lat.add(lat)
					if lat <= int64(overloadBudget) {
						r.good++
					}
				} else {
					k := classify(err)
					r.kinds[k]++
					if k == kindOther && other == nil {
						other = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	for p, due := range s.in.due {
		for _, d := range due {
			at := start.Add(d)
			waitUntil(at)
			_, lateBy := openLoopTimes(at.UnixNano(), time.Now().UnixNano(), 0)
			late.add(lateBy)
			jobs <- overloadJob{due: at, phase: p}
		}
	}
	close(jobs)
	wg.Wait()
	o.rates, o.late, o.offered = rates, late, uint64(s.in.total)
	o.calls = spans
	for i := range rates {
		r := &rates[i]
		o.attempted += r.attempted
		o.ok += r.ok
		o.good += r.good
		for k, n := range r.kinds {
			o.kinds[k] += n
		}
		o.lat[0].merge(&r.lat)
	}
	o.firstErr = other
	return nil
}

// finish checks the served == completed ledger: Busy served every call
// that succeeded, and no more than were admitted.
func (s *overloadSession) finish(o *outcome) error {
	// The warm-up and first call were served too; count only the window.
	served := uint64(s.busy.served.Load() - s.servedBefore)
	refused := o.kinds[kindOverloaded]
	if served < o.ok || served > o.attempted-refused {
		return fmt.Errorf("busy served %d calls in the window, callers completed %d of %d admitted",
			served, o.ok, o.attempted-refused)
	}
	o.note("busy served %d calls in the window (completed %d, admitted %d)", served, o.ok, o.attempted-refused)
	return nil
}

// sleepSlack is how much earlier than a due time the generator wakes from
// a sleep: Go's timers on Linux wake no sooner than about a millisecond.
const sleepSlack = 2 * time.Millisecond

// waitUntil returns at t with microsecond precision: it sleeps while t is
// more than sleepSlack away, then yields the processor in a loop, so other
// goroutines keep running while the generator waits out the last stretch.
func waitUntil(t time.Time) {
	if wait := time.Until(t) - sleepSlack; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
