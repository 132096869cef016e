package sim_test

// Tests for the coroutine driver's failure paths: a pooled runtime must stay
// in step with a fresh one after a host panic unwinds through the program's
// deferred simulated calls, and after a panic escapes the run itself.

import (
	"reflect"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// panicAt is an injector that panics on its nth consultation: a host bug
// in the middle of the run. It injects nothing.
type panicAt struct{ n int }

func (p *panicAt) Consult(sim.FaultSite, int, string) sim.FaultAction {
	if p.n--; p.n == 0 {
		panic("injector bug: mid-run")
	}
	return sim.FaultNone
}

// panics reports whether fn panicked, and with what.
func panics(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestPooledRunAfterMidRunHostPanic: the docker-24007 kernel defers
// wg.Done(t), so a host panic raised by the injector unwinds through a
// simulated call, and teardown later unwinds the same goroutines again.
// After every such panic, the next run on the same (never closed) pool must
// equal a fresh run.
func TestPooledRunAfterMidRunHostPanic(t *testing.T) {
	k, ok := kernels.ByID("docker-24007-double-close")
	if !ok {
		t.Fatal("kernel docker-24007-double-close not registered")
	}
	pool := sim.NewRunPool()
	panicked, mismatched := 0, 0
	for n := 1; n <= 6; n++ {
		for seed := int64(1); seed <= 300; seed++ {
			cfg := k.Config(seed)
			cfg.Injector = &panicAt{n: n}
			if panics(func() { pool.Run(cfg, k.Buggy) }) == nil {
				continue
			}
			panicked++
			next := k.Config(seed)
			got := pool.Run(next, k.Buggy)
			if want := sim.Run(next, k.Buggy); !reflect.DeepEqual(got, want) {
				if mismatched == 0 {
					t.Errorf("n=%d seed %d: pooled run after a host panic differs from a fresh run:\n pooled: %+v\n fresh:  %+v",
						n, seed, got, want)
				}
				mismatched++
			}
		}
	}
	if panicked == 0 {
		t.Fatal("the injector never panicked; the test exercises nothing")
	}
	if mismatched > 0 {
		t.Fatalf("%d of %d pooled runs after a host panic differ from a fresh run", mismatched, panicked)
	}
	t.Logf("%d of 1800 runs panicked; every next pooled run matched a fresh one", panicked)
}

// exitBoom is a sink that panics on GoExit, which the runtime emits from a
// goroutine's exit path rather than from inside its body.
type exitBoom struct{}

func (exitBoom) Kinds() []event.Kind { return []event.Kind{event.GoExit} }
func (exitBoom) Event(*event.Event)  { panic("sink bug: GoExit") }

// TestGoExitSinkPanicReachesCaller: a panic escaping a goroutine's exit path
// reaches the caller of Run and RunPool.Run instead of crashing the process,
// and the next run on the same pool equals a fresh run.
func TestGoExitSinkPanicReachesCaller(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	escaped := 0
	for _, k := range kernels.All() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := k.Config(seed)
			pool.Run(cfg, k.Buggy) // warm: the escape must drop a used runtime
			boom := cfg
			boom.Sinks = []event.Sink{exitBoom{}}
			v := panics(func() { pool.Run(boom, k.Buggy) })
			if v == nil {
				continue
			}
			escaped++
			if v != "sink bug: GoExit" {
				t.Fatalf("%s seed %d: pooled run panicked with %v, want the sink's panic", k.ID, seed, v)
			}
			if v := panics(func() { sim.Run(boom, k.Buggy) }); v != "sink bug: GoExit" {
				t.Fatalf("%s seed %d: fresh run panicked with %v, want the sink's panic", k.ID, seed, v)
			}
			got := pool.Run(cfg, k.Buggy)
			if want := sim.Run(cfg, k.Buggy); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: pooled run after an escaped panic differs from a fresh run:\n pooled: %+v\n fresh:  %+v",
					k.ID, seed, got, want)
			}
		}
	}
	if escaped == 0 {
		t.Fatal("no run emitted GoExit; the test exercises nothing")
	}
}
