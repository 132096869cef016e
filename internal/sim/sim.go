// Package sim implements a deterministic, instrumented model of the Go
// concurrency runtime.
//
// The paper studies bugs whose manifestation depends on scheduling
// ("Sometimes, we needed to run a buggy program a lot of times or manually
// add sleep", Section 4). sim removes that obstacle: simulated goroutines run
// one at a time under a cooperative scheduler whose every choice (which
// runnable goroutine to run next, which ready select case to take) is drawn
// from a seeded random source, so an interleaving is a pure function of the
// seed. All of Go's concurrency primitives that the paper discusses are
// modeled with their documented semantics:
//
//   - goroutines (Section 2.1), including anonymous-function spawning
//   - Mutex, RWMutex with Go's writer-priority implementation, WaitGroup,
//     Cond, Once, atomics (Section 2.2)
//   - buffered/unbuffered/nil/closed channels, select with its uniform
//     random choice among ready cases (Section 2.3)
//   - time.Timer/Ticker on a virtual clock, context, and an io.Pipe-style
//     message-passing library (Sections 2.3, 5.1.2, 6.1.2)
//
// Every synchronization operation maintains vector clocks (package hb), and
// every instrumented transition — memory accesses, synchronization
// operations, goroutine lifecycle, scheduler picks — is emitted as one
// typed event (package event) to the sinks attached via Config.Sinks. The
// race detector (package race), the rule checker (package vet), the DPOR
// footprint collector (package explore), the execution tracer
// (TraceCollector), and the Chrome-trace exporter (ChromeTraceSink) are all
// sinks over that single stream, so any set of them shares one instrumented
// run. The built-in deadlock detector model and the goroutine-leak detector
// (package deadlock) interpret the Result. A Chooser hook replaces random
// scheduling with enumerable decisions (package explore's systematic mode).
// Beyond the standard primitives, Semaphore models the buffered-channel
// concurrency limiter and MapVar models a plain shared map with the
// runtime's "concurrent map writes" crash.
//
// # Deliberate divergences from the real runtime
//
//   - Mutex.Unlock requires the unlocking goroutine to hold the lock; real
//     Go permits cross-goroutine unlocks. The strict model turns lock
//     hand-off typos into simulated panics instead of silent corruption.
//   - A run continues to quiescence after main returns (a server that
//     never exits), so leftover blocked goroutines are classified as leaks
//     rather than being killed mid-flight; the built-in-detector model
//     only fires while main is live, as a real program would have exited.
//   - Tickers fire a bounded number of times (NewTickerN /
//     DefaultTickerFires) so ticker-driven server loops reach quiescence.
//   - Virtual time advances only when every goroutine is blocked; CPU work
//     is modeled explicitly with T.Work/T.Sleep.
//   - A simulated panic terminates the whole run immediately (there is no
//     recover), matching an unrecovered production crash.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"goconcbugs/internal/event"
)

// Default limits applied when Config leaves the corresponding field zero.
const (
	DefaultMaxSteps      = 100_000
	DefaultLeakThreshold = 500
)

// Program is the entry function of a simulated program; it runs as the main
// goroutine (id 1).
type Program func(t *T)

// Config controls a single simulated run.
type Config struct {
	// Seed selects the interleaving. Equal seeds give identical runs.
	Seed int64
	// MaxSteps bounds scheduling steps so programs with perpetually
	// runnable goroutines (server loops) terminate; 0 means
	// DefaultMaxSteps.
	MaxSteps int64
	// LeakThreshold is the number of steps a goroutine must have been
	// continuously blocked for to be reported as leaked when the run ends
	// at the step limit (at quiescence every blocked goroutine is leaked
	// by construction); 0 means DefaultLeakThreshold.
	LeakThreshold int64
	// Sinks receive the run's unified event stream (package event): every
	// instrumented memory access, synchronization operation, goroutine
	// lifecycle transition, and scheduler step. Detectors, tracers, and
	// schedule observers all attach here; any number share the single
	// instrumented pass. Sinks with an empty or disjoint Kinds() set cost
	// nothing at the emission sites they skip. Use ObserverSink,
	// MonitorSink, and DPORSink to adapt the historical observer
	// interfaces.
	Sinks []event.Sink
	// Chooser, when non-nil, replaces the seeded random source for
	// *scheduling* decisions — which runnable goroutine runs next and
	// which ready select case fires. It receives the number of options
	// and, for goroutine-scheduling decisions, the index of the option
	// that continues the currently running goroutine (-1 when it cannot
	// continue, and for select-case decisions); it must return an index
	// in [0, n). Package explore's systematic mode uses this to
	// enumerate schedules exhaustively — and, with the preferred index,
	// to bound preemptions CHESS-style. T.Rand (input randomness) stays
	// on the seed either way. (Chooser is an input to scheduling, not an
	// observation of it, which is why it is not a Sink.)
	Chooser func(n, preferred int) int
	// Injector, when non-nil, is consulted at every instrumented primitive
	// operation and may perturb it (injected yields, early timeouts,
	// spurious wakeups, goroutine death, panics, channel closes — see
	// FaultAction). Nil costs one nil check per operation. Injectors are
	// per-run: package inject's implementation is stateful and must not be
	// shared across concurrent runs.
	Injector Injector
	// Name labels the run in reports.
	Name string
}

// Outcome describes how a run ended.
type Outcome int

const (
	// OutcomeOK: the program ran to quiescence (no runnable goroutines,
	// no pending timers). Blocked goroutines, if any, are leaked.
	OutcomeOK Outcome = iota
	// OutcomeBuiltinDeadlock: the model of Go's built-in detector fired —
	// every live goroutine was asleep on a concurrency primitive while
	// the main goroutine was still live ("all goroutines are asleep -
	// deadlock!").
	OutcomeBuiltinDeadlock
	// OutcomePanic: a simulated runtime panic (send on closed channel,
	// double close, negative WaitGroup counter, ...) crashed the program.
	OutcomePanic
	// OutcomeStepLimit: the step budget ran out with runnable goroutines
	// remaining (typically a server loop).
	OutcomeStepLimit
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeBuiltinDeadlock:
		return "builtin-deadlock"
	case OutcomePanic:
		return "panic"
	case OutcomeStepLimit:
		return "step-limit"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// PanicInfo records a simulated panic.
type PanicInfo struct {
	G    int
	Name string
	Msg  string
	Step int64
}

// GoroutineInfo is the end-of-run record for one simulated goroutine.
type GoroutineInfo struct {
	ID           int
	Name         string
	State        GState
	BlockKind    BlockKind
	BlockObj     string
	CreatedStep  int64
	CreatedTime  int64
	EndTime      int64 // virtual time when it finished; -1 if it never did
	BlockedSince int64 // step at which its current block began; -1 if not blocked
	// HeldLocks lists the lock names the goroutine held when the run
	// ended — the raw material for circular-wait analysis.
	HeldLocks []string
}

// Result is the full observable outcome of one simulated run.
type Result struct {
	Name              string
	Seed              int64
	Outcome           Outcome
	Steps             int64
	VirtualTime       int64 // nanoseconds of virtual time elapsed
	GoroutinesCreated int
	// RandDraws counts T.Rand consultations. Nonzero means program
	// behavior consumed interleaving-ordered randomness — a signal the
	// explorer's trace-keyed state memoization uses to disable itself.
	RandDraws int64
	// Leaked lists goroutines judged blocked forever (the paper's
	// "blocking bug" manifestation: goroutines that "wait for resources
	// that no other goroutines supply").
	Leaked []GoroutineInfo
	// Blocked lists every goroutine still blocked when the run ended
	// (superset of Leaked under OutcomeStepLimit).
	Blocked []GoroutineInfo
	// Goroutines holds the record of every goroutine created.
	Goroutines []GoroutineInfo
	Panics     []PanicInfo
	// CheckFailures records violated kernel-level invariants
	// (T.Check/T.Checkf) — the oracle for non-blocking misbehavior.
	CheckFailures []string
	// DeadlockReport is the built-in detector's message when
	// Outcome == OutcomeBuiltinDeadlock.
	DeadlockReport string
}

// Failed reports whether the run manifested any misbehavior: a deadlock, a
// panic, a leak, or a check failure.
func (r *Result) Failed() bool {
	return r.Outcome == OutcomeBuiltinDeadlock || r.Outcome == OutcomePanic ||
		len(r.Leaked) > 0 || len(r.CheckFailures) > 0
}

// Run executes main under cfg and returns the outcome. It is safe to call
// concurrently from multiple host goroutines; each run is self-contained.
// Loops that execute many runs back-to-back should prefer a RunPool, which
// recycles the whole runtime between runs.
func Run(cfg Config, main Program) *Result {
	rt := newRuntime(cfg)
	rt.execute(main)
	if rt.hostPanic != nil {
		// A non-simulated panic in program code is a bug in the
		// caller's code: propagate it on the caller's goroutine.
		rt.releaseWorkers()
		panic(rt.hostPanic)
	}
	res := rt.finalize()
	rt.releaseWorkers()
	return res
}

// execute drives one run of main to completion: spawn, first dispatch, wait
// for the end, unwind stragglers.
func (rt *runtime) execute(main Program) {
	rt.spawn("main", main)
	// The first dispatch necessarily picks main (the only goroutine);
	// after that, scheduling decisions execute inline on whichever
	// simulated goroutine is handing off the CPU, and this caller simply
	// waits for the run to end.
	if g := rt.dispatch(); g != nil {
		rt.wake(g)
	} else {
		rt.endRun()
	}
	<-rt.done
	rt.teardown()
}

type runtime struct {
	cfg           Config
	rng           *rand.Rand // lazily seeded; see random()
	rngSrc        *rand.PCG  // the rng's reseedable source, kept for reuse
	rngReady      bool       // rng is seeded for the current run
	gs            []*G
	now           int64
	step          int64
	timers        timerHeap
	timerSeq      int64
	done          chan struct{} // capacity 1; endRun -> Run caller
	dead          chan struct{} // killed goroutine -> Run caller during teardown
	killing       bool
	stopping      bool
	outcome       Outcome
	deadlockMsg   string
	panics        []PanicInfo
	checkFailures []string
	lastG         *G
	hostPanic     any
	nextVarID     int
	nextChanID    int
	nextSyncID    int
	maxSteps      int64
	leakThreshold int64
	runq          []*G // scratch buffer for dispatch's runnable scan
	// mux fans the event stream out to Config.Sinks (nil when none —
	// every emission site then reduces to one nil check); scratch is the
	// reused per-run event buffer, so emission never allocates.
	mux     *event.Mux
	scratch event.Event
	// sched accumulates the in-flight transition's footprint when some
	// sink subscribed to SchedStep events; chooserCalls numbers Chooser
	// invocations so decision indices line up with the explorer's
	// recorded sequence.
	sched        *schedState
	chooserCalls int
	lastDecision int // Chooser call index of the latest choose, -1 if forced
	// randDraws counts T.Rand consultations this run. Program-visible
	// randomness depends on the global draw order, i.e. on the concrete
	// interleaving — the explorer's state memoization keys on the
	// dependence trace alone, so it must switch itself off whenever a run
	// drew (Result.RandDraws > 0).
	randDraws int64
	// Run-pooling state. arena recycles per-primitive structures across
	// runs in construction order (see arenaGet); pooled marks a runtime
	// owned by a RunPool, whose finalize reuses res instead of allocating
	// a fresh Result.
	arena     []any
	arenaNext int
	pooled    bool
	res       Result
}

func newRuntime(cfg Config) *runtime {
	rt := &runtime{
		done: make(chan struct{}, 1),
		dead: make(chan struct{}),
	}
	rt.reset(cfg)
	return rt
}

// reset prepares the runtime for a fresh run under cfg, recycling every
// backing the previous run grew: the goroutine slots (and their parked
// workers), the primitive arena, the timer heap, scratch buffers, and the
// seeded source. It is the single initialization path — newRuntime calls it
// on a zero runtime — so fresh and pooled runs cannot drift.
func (rt *runtime) reset(cfg Config) {
	rt.cfg = cfg
	rt.rngReady = false
	rt.gs = rt.gs[:0]
	rt.now = 0
	rt.step = 0
	rt.timers = rt.timers[:0]
	rt.timerSeq = 0
	rt.killing = false
	rt.stopping = false
	rt.outcome = OutcomeOK
	rt.deadlockMsg = ""
	rt.panics = rt.panics[:0]
	rt.checkFailures = rt.checkFailures[:0]
	rt.lastG = nil
	rt.hostPanic = nil
	rt.nextVarID = 0
	rt.nextChanID = 0
	rt.nextSyncID = 0
	rt.runq = rt.runq[:0]
	rt.scratch = event.Event{}
	rt.chooserCalls = 0
	rt.lastDecision = 0
	rt.randDraws = 0
	rt.arenaNext = 0
	rt.maxSteps = cfg.MaxSteps
	rt.leakThreshold = cfg.LeakThreshold
	if rt.maxSteps <= 0 {
		rt.maxSteps = DefaultMaxSteps
	}
	if rt.leakThreshold <= 0 {
		rt.leakThreshold = DefaultLeakThreshold
		if half := rt.maxSteps / 2; half < rt.leakThreshold {
			rt.leakThreshold = half
		}
	}
	if !rt.mux.Serves(cfg.Sinks) {
		// A pooled runtime handed the same sinks as last run (a sweep
		// worker's reused detector pipeline) keeps its dispatch table.
		rt.mux = event.NewMux(cfg.Sinks)
	}
	if rt.wants(event.Sched) {
		if rt.sched == nil {
			rt.sched = &schedState{}
		} else {
			rt.sched.reset()
		}
	} else {
		rt.sched = nil
	}
}

// releaseWorkers shuts down the parked host workers behind every goroutine
// slot. After it returns the runtime cannot run again; a plain Run calls it
// before returning so no host goroutines outlive the call, and RunPool calls
// it from Close.
func (rt *runtime) releaseWorkers() {
	for _, g := range rt.gs[:cap(rt.gs)] {
		if g != nil {
			close(g.resume)
		}
	}
	rt.gs = nil
}

// wants reports whether some sink subscribed to k. Emission sites guard on
// it so payload assembly is skipped when nobody is listening.
func (rt *runtime) wants(k event.Kind) bool {
	return rt.mux != nil && rt.mux.Wants(k)
}

// emit stamps the common header (step, virtual time, acting goroutine, its
// live clock and held locks) onto ev and dispatches it through the run's
// scratch buffer. Callers must have checked wants(ev.Kind); the slices the
// stamped event aliases are live runtime state per package event's
// ownership rules.
func (rt *runtime) emit(g *G, ev event.Event) {
	ev.Step = rt.step
	ev.Time = rt.now
	ev.G = g.id
	ev.GName = g.name
	ev.VC = g.vc
	ev.HeldLocks = g.held
	rt.scratch = ev
	rt.mux.Emit(&rt.scratch)
}

// emitObj is the common emission shape: a payload-free event about one named
// object, dispatched only when some sink subscribed to the kind.
func (t *T) emitObj(k event.Kind, obj string) {
	if t.rt.wants(k) {
		t.rt.emit(t.g, event.Event{Kind: k, Obj: obj})
	}
}

// emitObjDetail emits an event about obj with a static detail string.
func (t *T) emitObjDetail(k event.Kind, obj, detail string) {
	if t.rt.wants(k) {
		t.rt.emit(t.g, event.Event{Kind: k, Obj: obj, Detail: detail})
	}
}

// random returns the run's seeded source, (re)seeding it on first use. Runs
// under a Chooser (systematic exploration) whose programs never call T.Rand
// skip the seeding cost entirely. The PCG and its Rand wrapper are allocated
// once per runtime and reseeded on pooled reuse.
func (rt *runtime) random() *rand.Rand {
	if !rt.rngReady {
		if rt.rngSrc == nil {
			rt.rngSrc = rand.NewPCG(uint64(rt.cfg.Seed), 0x9e3779b97f4a7c15)
			rt.rng = rand.New(rt.rngSrc)
		} else {
			rt.rngSrc.Seed(uint64(rt.cfg.Seed), 0x9e3779b97f4a7c15)
		}
		rt.rngReady = true
	}
	return rt.rng
}

// dispatch is one scheduler step: it picks the next goroutine to run, firing
// due timers and advancing virtual time when nothing is runnable. It returns
// nil when the run is over (quiescent, deadlocked, or out of steps), with
// rt.outcome/rt.deadlockMsg already recorded.
//
// Exactly one simulated goroutine executes at any moment — control moves by
// direct handoff, so dispatch always runs on whichever host goroutine holds
// the CPU token (the yielding/blocking/exiting goroutine, or the Run caller
// for the first step). All simulated state is therefore free of host-level
// data races by construction, without a scheduler goroutine in the middle.
func (rt *runtime) dispatch() *G {
	for {
		if rt.step >= rt.maxSteps {
			rt.outcome = OutcomeStepLimit
			return nil
		}
		runnable := rt.runnable()
		if len(runnable) == 0 {
			if rt.fireDueTimers() {
				continue
			}
			blocked := rt.blockedGs()
			if len(blocked) == 0 {
				return nil // quiescent, everything done
			}
			if rt.mainLive() && rt.allAsleepOnPrimitives(blocked) {
				rt.outcome = OutcomeBuiltinDeadlock
				rt.deadlockMsg = rt.deadlockReport(blocked)
				return nil
			}
			// Either the program has exited with stragglers, or
			// some goroutine waits on a non-primitive resource the
			// built-in detector cannot see (Section 5.3).
			return nil
		}
		preferred := -1
		for i, g := range runnable {
			if g == rt.lastG {
				preferred = i
				break
			}
		}
		g := runnable[rt.choose(len(runnable), preferred)]
		if rt.sched != nil {
			rt.schedBegin(g, rt.lastDecision, runnable, preferred)
		}
		rt.lastG = g
		rt.step++
		return g
	}
}

// endRun marks the run finished and releases the Run caller. The calling
// simulated goroutine (if any) must park itself afterwards and touch no
// shared runtime state: teardown runs concurrently on the caller's host
// goroutine from here on. The buffered send (exactly one per run) keeps the
// channel reusable across pooled runs, unlike a close.
func (rt *runtime) endRun() {
	rt.done <- struct{}{}
}

// choose picks among n scheduling options, via the Chooser when one is
// configured (systematic exploration) and the seeded source otherwise.
// preferred is the option continuing the currently running goroutine, -1
// when there is none.
func (rt *runtime) choose(n, preferred int) int {
	rt.lastDecision = -1
	if n <= 1 {
		return 0
	}
	if rt.cfg.Chooser != nil {
		rt.lastDecision = rt.chooserCalls
		rt.chooserCalls++
		idx := rt.cfg.Chooser(n, preferred)
		if idx < 0 || idx >= n {
			idx = 0
		}
		return idx
	}
	return rt.random().IntN(n)
}

// wake hands the CPU token to g. The caller must immediately park, exit, or
// (for the Run caller) start waiting on rt.done.
func (rt *runtime) wake(g *G) {
	g.state = GRunning
	g.resume <- struct{}{}
}

// runnable collects the runnable goroutines into a scratch buffer that is
// reused across dispatch steps (safe: exactly one dispatch runs at a time
// and the buffer never escapes it).
func (rt *runtime) runnable() []*G {
	out := rt.runq[:0]
	for _, g := range rt.gs {
		if g.state == GRunnable {
			out = append(out, g)
		}
	}
	rt.runq = out
	return out
}

func (rt *runtime) blockedGs() []*G {
	var out []*G
	for _, g := range rt.gs {
		if g.state == GBlocked {
			out = append(out, g)
		}
	}
	return out
}

func (rt *runtime) mainLive() bool {
	return len(rt.gs) > 0 && rt.gs[0].state != GDone && rt.gs[0].state != GPanicked
}

// allAsleepOnPrimitives mirrors the built-in detector's visibility: it only
// understands waits on Go concurrency primitives, not waits for "other
// systems resources" (Section 5.3), which BlockExternal models.
func (rt *runtime) allAsleepOnPrimitives(blocked []*G) bool {
	for _, g := range blocked {
		if g.block.kind == BlockExternal {
			return false
		}
	}
	return true
}

func (rt *runtime) deadlockReport(blocked []*G) string {
	msg := "fatal error: all goroutines are asleep - deadlock!"
	for _, g := range blocked {
		msg += fmt.Sprintf("\ngoroutine %d [%s]: %s", g.id, g.block.kind, g.block.obj)
	}
	return msg
}

// teardown unwinds every still-parked simulated goroutine so that a Run
// leaves no host goroutines behind.
func (rt *runtime) teardown() {
	rt.killing = true
	for _, g := range rt.gs {
		switch g.state {
		case GRunnable, GBlocked:
			g.resume <- struct{}{}
			<-rt.dead
		}
	}
}

func (rt *runtime) finalize() *Result {
	// Deliver the final transition's metadata: no further pick will flush
	// it. Safe here — finalize runs on Run's caller after every simulated
	// goroutine has parked or exited. RunEnd then tells streaming sinks
	// the event stream is complete.
	rt.schedFlush()
	if rt.mux != nil {
		rt.mux.RunEnd()
	}
	var res *Result
	var gor, blk, lkd []GoroutineInfo
	if rt.pooled {
		// A pooled finalize recycles the previous run's Result and its
		// slice backings; the returned pointer is valid until the next
		// RunPool.Run (Clone to retain).
		res = &rt.res
		gor, blk, lkd = res.Goroutines[:0], res.Blocked[:0], res.Leaked[:0]
	} else {
		res = new(Result)
	}
	*res = Result{
		Name:              rt.cfg.Name,
		Seed:              rt.cfg.Seed,
		Outcome:           rt.outcome,
		Steps:             rt.step,
		VirtualTime:       rt.now,
		GoroutinesCreated: len(rt.gs),
		RandDraws:         rt.randDraws,
		Panics:            rt.panics,
		CheckFailures:     rt.checkFailures,
		DeadlockReport:    rt.deadlockMsg,
		Goroutines:        gor,
		Blocked:           blk,
		Leaked:            lkd,
	}
	if len(rt.panics) > 0 && rt.outcome != OutcomeBuiltinDeadlock {
		res.Outcome = OutcomePanic
	}
	for _, g := range rt.gs {
		info := g.info()
		res.Goroutines = append(res.Goroutines, info)
		if g.finalState != GBlocked {
			continue
		}
		res.Blocked = append(res.Blocked, info)
		if res.Outcome == OutcomePanic {
			continue // the crash preempts liveness analysis
		}
		leaked := true
		if res.Outcome == OutcomeStepLimit {
			// The run was cut short; only long-blocked goroutines
			// are confidently leaked.
			leaked = rt.step-g.blockedSince >= rt.leakThreshold
		}
		if leaked {
			res.Leaked = append(res.Leaked, info)
		}
	}
	// Empty collections read as nil, as they always have: recycled backings
	// must not surface as non-nil empty slices (JSON null vs [], DeepEqual).
	if len(res.Blocked) == 0 {
		res.Blocked = nil
	}
	if len(res.Leaked) == 0 {
		res.Leaked = nil
	}
	if len(res.Panics) == 0 {
		res.Panics = nil
	}
	if len(res.CheckFailures) == 0 {
		res.CheckFailures = nil
	}
	return res
}

// Clone deep-copies a Result so it stays valid past the next run of the
// RunPool that produced it.
func (r *Result) Clone() *Result {
	cp := *r
	cp.Leaked = append([]GoroutineInfo(nil), r.Leaked...)
	cp.Blocked = append([]GoroutineInfo(nil), r.Blocked...)
	cp.Goroutines = append([]GoroutineInfo(nil), r.Goroutines...)
	cp.Panics = append([]PanicInfo(nil), r.Panics...)
	cp.CheckFailures = append([]string(nil), r.CheckFailures...)
	return &cp
}

func (rt *runtime) checkFail(g *G, msg string) {
	rt.checkFailures = append(rt.checkFailures,
		fmt.Sprintf("g%d(%s) step %d: %s", g.id, g.name, rt.step, msg))
}

// Duration re-exports time.Duration for virtual-time APIs so kernel code
// reads like ordinary Go.
type Duration = time.Duration
