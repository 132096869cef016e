package sim

import "sync"

// Run pooling: amortizing the per-run setup of the simulated runtime.
//
// Sweeps run the same program tens of thousands to millions of times with
// only the seed (or the schedule prefix) changing. A fresh Run pays for the
// whole world every time — the runtime struct, one coroutine per simulated
// goroutine, every mutex/channel/variable the program constructs,
// vector-clock backings, and the Result. RunPool keeps all of that alive
// between runs and resets it instead:
//
//   - the runtime struct, its scratch buffers, and seeded source are reused
//     (reset, not reallocated);
//   - goroutine slot i always maps to the same G and the same coroutine,
//     parked between assignments (allocG), so spawning is a field reset and
//     the first resume re-enters a warm coroutine loop;
//   - primitives are recycled through a construction-order arena (arenaGet):
//     the i-th primitive constructed by a run gets the i-th arena slot, so
//     deterministic re-runs of one program hit the same object (same
//     backing queues, same auto-generated name) every time;
//   - the Result and its slices are reused (finalize), valid until the next
//     Run on the pool — Clone to retain one.
//
// Everything above is guarded by the simulator's coroutine discipline:
// exactly one party (the Run caller's driver loop or one simulated
// goroutine) touches runtime state at any moment, so the pool needs no locks — and,
// for the same reason, a RunPool must NOT be shared between concurrent host
// goroutines. Give each sweep worker its own pool.
//
// Equivalence: a pooled run is observably identical to a fresh Run — same
// Result, same event stream, same Chooser/Injector consultation sequence —
// because every piece of state a run can observe is reset on reuse
// (sim_pool_differential_test.go pins this bit-for-bit).
//
// Fresh runs recycle too, at a coarser grain: a released runtime (the end
// of a plain Run, RunPool.Close) hands each G whose coroutine is parked
// between assignments to a process-wide free list, capped at maxIdleGs, and
// allocG takes from it before starting a new coroutine.

// maxIdleGs caps the free list of idle Gs, and with it the host goroutines
// (parked coroutines) that outlive the runs that started them.
const maxIdleGs = 256

// idleGs is the process-wide free list of Gs parked between assignments.
// It is not a sync.Pool: a G the collector dropped from one would strand its
// parked coroutine, a goroutine, for the life of the process.
var idleGs gFreeList

type gFreeList struct {
	mu sync.Mutex
	gs []*G
}

// take pops an idle G, nil when the list is empty.
func (l *gFreeList) take() *G {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.gs)
	if n == 0 {
		return nil
	}
	g := l.gs[n-1]
	l.gs[n-1] = nil
	l.gs = l.gs[:n-1]
	return g
}

// put adds g to the list, reporting false when the list is full. g drops
// its runtime so the list pins no finished run's state.
func (l *gFreeList) put(g *G) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.gs) >= maxIdleGs {
		return false
	}
	g.rt, g.t, g.fn = nil, T{}, nil
	l.gs = append(l.gs, g)
	return true
}

// RunPool executes runs back-to-back on one recycled runtime. The zero
// value is ready to use. Not safe for concurrent use.
type RunPool struct {
	rt *runtime
}

// NewRunPool returns an empty pool. The first Run populates it.
func NewRunPool() *RunPool { return &RunPool{} }

// Run executes main under cfg exactly like the package-level Run, reusing
// the pool's runtime. The returned Result (and everything it references) is
// valid only until the next call to Run on this pool; use Result.Clone to
// retain it.
//
// A host panic inside the program propagates like it does from Run and
// leaves the pool usable: teardown has already unwound every goroutine, so
// the next reset starts clean. A panic that escapes the run itself (a sink
// panicking on GoExit) also propagates, and the pool drops its runtime so
// the next Run starts from scratch.
func (p *RunPool) Run(cfg Config, main Program) *Result {
	if p.rt == nil {
		p.rt = newRuntime(cfg)
		p.rt.pooled = true
	} else {
		p.rt.reset(cfg)
	}
	rt := p.rt
	escaped := true
	defer func() {
		if escaped {
			p.Close()
		}
	}()
	rt.execute(main)
	escaped = false
	if rt.hostPanic != nil {
		hp := rt.hostPanic
		rt.hostPanic = nil
		panic(hp)
	}
	return rt.finalize()
}

// Close gives up the pool's coroutines (to the process-wide free list, up
// to its cap). The pool itself remains usable — the next Run simply starts
// from scratch — but Close must be called (or the pool left for the GC
// along with its parked coroutines) before discarding it; parked coroutines
// otherwise live as long as the process.
func (p *RunPool) Close() {
	if p.rt != nil {
		p.rt.releaseCoroutines()
		p.rt = nil
	}
}

// arenaGet returns the next primitive slot as a *T, recycling the previous
// run's object when the slot already holds that exact type (the common case:
// deterministic programs construct the same primitives in the same order
// every run). The second result reports recycling: the caller owns the full
// reset of a recycled object's fields. On a type mismatch — or on a fresh
// runtime — the slot is (re)filled with a zero value, so partial arena
// coverage and cross-program pool reuse are both safe.
func arenaGet[T any](rt *runtime) (*T, bool) {
	i := rt.arenaNext
	rt.arenaNext++
	if i < len(rt.arena) {
		if p, ok := rt.arena[i].(*T); ok {
			return p, true
		}
		p := new(T)
		rt.arena[i] = p
		return p, false
	}
	p := new(T)
	rt.arena = append(rt.arena, p)
	return p, false
}
