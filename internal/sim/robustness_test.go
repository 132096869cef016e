package sim

import (
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"goconcbugs/internal/event"
)

// Robustness and failure-injection tests: the runtime must stay sane when
// the program misbehaves in ways beyond simulated panics.

func TestHostPanicPropagates(t *testing.T) {
	// A genuine bug in kernel code (not a simulated runtime panic) must
	// surface to the host, not be swallowed.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("host panic swallowed")
		}
		if !strings.Contains(toString(r), "kernel bug") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	Run(Config{Seed: 1}, func(tt *T) {
		panic("kernel bug")
	})
}

func toString(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func TestHostPanicInChildPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("child host panic swallowed")
		}
	}()
	Run(Config{Seed: 1}, func(tt *T) {
		tt.Go(func(ct *T) { panic("child bug") })
		tt.Sleep(10)
	})
}

func TestRunAfterHostPanicStillWorks(t *testing.T) {
	// A crashed run must not poison subsequent runs (scheduler state is
	// per-run).
	func() {
		defer func() { recover() }()
		Run(Config{Seed: 1}, func(tt *T) { panic("boom") })
	}()
	res := Run(Config{Seed: 1}, func(tt *T) {
		ch := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { ch.Send(ct, 1) })
		v, _ := ch.Recv(tt)
		tt.Checkf(v == 1, "got %d", v)
	})
	if res.Failed() {
		t.Fatalf("follow-up run failed: %+v", res.CheckFailures)
	}
}

func TestTinyStepBudget(t *testing.T) {
	res := Run(Config{Seed: 1, MaxSteps: 3}, func(tt *T) {
		for {
			tt.Yield()
		}
	})
	if res.Outcome != OutcomeStepLimit {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestChooserOutOfRangeIsClamped(t *testing.T) {
	res := Run(Config{Seed: 1, Chooser: func(n, preferred int) int { return 999 }}, func(tt *T) {
		done := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { done.Send(ct, 1) })
		done.Recv(tt)
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestNegativeChooserIsClamped(t *testing.T) {
	res := Run(Config{Seed: 1, Chooser: func(n, preferred int) int { return -5 }}, func(tt *T) {
		done := NewChan[int](tt, 0)
		tt.Go(func(ct *T) { done.Send(ct, 1) })
		done.Recv(tt)
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestObserverMonitorChooserTogether(t *testing.T) {
	// Both adapter sinks plus the chooser at once must compose.
	var accesses, events, choices int
	res := Run(Config{
		Seed: 1,
		Sinks: []event.Sink{
			ObserverSink{Obs: observerFunc(func(MemAccess) { accesses++ })},
			MonitorSink{Mon: monitorFunc(func(SyncEvent) { events++ })},
		},
		Chooser: func(n, preferred int) int {
			choices++
			return n - 1
		},
	}, func(tt *T) {
		x := NewVar[int](tt, "x")
		mu := NewMutex(tt, "mu")
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, 2)
		for i := 0; i < 2; i++ {
			tt.Go(func(ct *T) {
				mu.Lock(ct)
				x.Store(ct, x.Load(ct)+1)
				mu.Unlock(ct)
				wg.Done(ct)
			})
		}
		wg.Wait(tt)
	})
	if res.Failed() {
		t.Fatalf("failed: %+v", res.CheckFailures)
	}
	if accesses == 0 || events == 0 || choices == 0 {
		t.Fatalf("hooks unused: accesses=%d events=%d choices=%d", accesses, events, choices)
	}
}

type observerFunc func(MemAccess)

func (f observerFunc) Access(ac MemAccess) { f(ac) }

type monitorFunc func(SyncEvent)

func (f monitorFunc) SyncEvent(ev SyncEvent) { f(ev) }

func TestManyGoroutines(t *testing.T) {
	const n = 200
	res := Run(Config{Seed: 9, MaxSteps: 500_000}, func(tt *T) {
		wg := NewWaitGroup(tt, "wg")
		wg.Add(tt, n)
		ch := NewChan[int](tt, 16)
		tt.Go(func(ct *T) {
			for i := 0; i < n; i++ {
				ch.Recv(ct)
			}
		})
		for i := 0; i < n; i++ {
			i := i
			tt.Go(func(ct *T) {
				ch.Send(ct, i)
				wg.Done(ct)
			})
		}
		wg.Wait(tt)
	})
	if res.Failed() {
		t.Fatalf("failed: outcome=%v leaks=%d", res.Outcome, len(res.Leaked))
	}
	if res.GoroutinesCreated != n+2 {
		t.Fatalf("created %d, want %d", res.GoroutinesCreated, n+2)
	}
}

func TestGoroutineNamesAreUseful(t *testing.T) {
	res := Run(Config{Seed: 1}, func(tt *T) {
		tt.GoNamed("worker", func(ct *T) {})
		tt.Go(func(ct *T) {})
		tt.Sleep(5)
	})
	names := map[string]bool{}
	for _, g := range res.Goroutines {
		names[g.Name] = true
	}
	if !names["main"] || !names["worker"] {
		t.Fatalf("names = %v", names)
	}
}

// idleCount is the length of the process-wide free list of idle Gs.
func idleCount() int {
	idleGs.mu.Lock()
	defer idleGs.mu.Unlock()
	return len(idleGs.gs)
}

// settleGoroutines waits briefly for exiting goroutines to finish, until
// ok holds for goruntime.NumGoroutine(), and returns the last count.
func settleGoroutines(ok func(n int) bool) int {
	n := goruntime.NumGoroutine()
	for i := 0; i < 100 && !ok(n); i++ {
		time.Sleep(10 * time.Millisecond)
		n = goruntime.NumGoroutine()
	}
	return n
}

// coroutineProg exercises every way a coroutine leaves a run: a child that
// exits, one that blocks forever (unwound by teardown), and one that never
// gets to run when main panics on odd seeds.
func coroutineProg(tt *T) {
	ch := NewChan[int](tt, 0)
	tt.Go(func(ct *T) { ch.Send(ct, 1) })
	tt.Go(func(ct *T) { NewChan[int](ct, 0).Recv(ct) })
	tt.Go(func(ct *T) { ct.Yield() })
	if tt.Rand(2) == 1 {
		tt.Panicf("odd")
	}
	ch.Recv(tt)
}

// TestIdleCoroutinesBounded: fresh runs from many host goroutines leave at
// most maxIdleGs parked coroutines behind, however many runs they make —
// also when, as here, the runs in flight together use more Gs than that.
func TestIdleCoroutinesBounded(t *testing.T) {
	const width = maxIdleGs/8 + 8 // Gs per run: 8 runs in flight overflow the cap
	wide := func(tt *T) {
		for i := 0; i < width-4; i++ {
			tt.Go(func(ct *T) { ct.Yield() })
		}
		coroutineProg(tt)
	}
	start := goruntime.NumGoroutine()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10_000/8; i++ {
				Run(Config{Seed: int64(w*10_000 + i)}, wide)
			}
		}()
	}
	wg.Wait()
	limit := start + maxIdleGs
	if n := settleGoroutines(func(n int) bool { return n <= limit }); n > limit {
		t.Fatalf("%d goroutines after 10k fresh runs, want at most %d (%d at start + %d idle cap)", n, limit, start, maxIdleGs)
	}
}

// TestPoolCloseReturnsCoroutines: Close hands the pool's parked coroutines
// to the free list instead of stopping them, and nothing is left running
// outside it.
func TestPoolCloseReturnsCoroutines(t *testing.T) {
	pool := NewRunPool()
	pool.Run(Config{Seed: 2}, coroutineProg) // even seed: main, 3 children
	idle, live := idleCount(), goruntime.NumGoroutine()
	pool.Close()
	want := min(idle+4, maxIdleGs)
	if got := idleCount(); got != want {
		t.Fatalf("free list holds %d Gs after Close, want %d", got, want)
	}
	if idle+4 <= maxIdleGs {
		if n := goruntime.NumGoroutine(); n != live {
			t.Fatalf("%d goroutines after Close, want %d: coroutines were stopped, not handed back", n, live)
		}
	}
}

// TestEscapedPanicStrandsNoCoroutine: when a panic escapes a run (a sink
// panicking on GoExit while other goroutines are parked mid-body), every
// coroutine of the dropped runtime ends up either stopped or on the free
// list.
func TestEscapedPanicStrandsNoCoroutine(t *testing.T) {
	outside := func() int { return goruntime.NumGoroutine() - idleCount() }
	base := outside()
	pool := NewRunPool()
	for seed := int64(0); seed < 20; seed++ {
		cfg := Config{Seed: seed, Sinks: []event.Sink{exitPanicker{}}}
		func() {
			defer func() { recover() }()
			pool.Run(cfg, coroutineProg)
		}()
		func() {
			defer func() { recover() }()
			Run(cfg, coroutineProg)
		}()
	}
	pool.Close()
	if n := settleGoroutines(func(int) bool { return outside() <= base }); outside() > base {
		t.Fatalf("%d goroutines (%d outside the free list) after escaped panics, want %d outside", n, outside(), base)
	}
}

type exitPanicker struct{}

func (exitPanicker) Kinds() []event.Kind { return []event.Kind{event.GoExit} }
func (exitPanicker) Event(*event.Event)  { panic("sink bug") }
