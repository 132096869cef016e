// Package event defines the simulated runtime's unified observation
// surface: one typed Event per synchronization, memory, or scheduling
// transition, delivered to any number of Sinks through a per-kind
// pre-dispatched multiplexer.
//
// The paper's detection experiments (Tables 8 and 12) observe the same
// execution through different lenses — the built-in deadlock detector, the
// happens-before race detector, and the Section 7 proposals (goroutine-leak
// and dynamic rule enforcement). Before this package each lens had its own
// bespoke runtime hook, so attaching N detectors cost N instrumented runs.
// Now every instrumented primitive emits exactly one event stream and every
// consumer — race detection, rule vetting, DPOR footprint collection,
// execution tracing, Chrome-trace export — is a Sink over it, so a single
// pass feeds them all (package detect composes detector sets on top).
//
// # Dispatch cost model
//
// A Sink declares the event kinds it wants via Kinds(); NewMux buckets the
// sinks into a [NumKinds][]Sink array once, at run start (a pooled runtime
// keeps the array across runs while the sink list stays the same, see
// Mux.Serves). Emitting is then
//
//	sinks := mux.byKind[ev.Kind]   // one array index
//	for _, s := range sinks { s.Event(ev) }
//
// so a sink that only wants mutex events never sees channel traffic, and a
// kind nobody subscribed to costs one array-indexed length check
// (Mux.Wants) at the emission site — the same order of cost as the nil
// checks the legacy per-hook fields needed. The runtime reuses one Event
// scratch buffer per run, so emission allocates nothing.
//
// # Writing a sink
//
// Implement Kinds() (return the kinds you need — fewer kinds, fewer
// callbacks) and Event(*Event). The *Event and every slice reachable from
// it (VC, HeldLocks, Sched.OptionGs, Sched.Ops) are owned by the runtime
// and reused across emissions: read what you need during the callback and
// clone anything you retain. Callbacks run strictly serially on the
// simulated program's host goroutines. A sink that also implements
// RunEnder gets a RunEnd() call when the run finishes (after the final
// flushed SchedStep) — that is where a streaming sink flushes its output.
package event

import (
	"reflect"

	"goconcbugs/internal/hb"
)

// Kind identifies the operation an Event describes. Kinds are deliberately
// fine-grained — one per distinct emission point in the runtime — so a
// consumer's subscription, not a coarse category, decides what it sees.
//
// The numeric values are part of the trace/v1 wire format (package trace
// uses the Kind byte as the on-disk record tag), so the enum is
// append-only: new kinds go immediately before NumKinds, and existing
// values must never be reordered or removed — archived traces would decode
// as the wrong operations. internal/trace's kind-pinning test fails loudly
// on any accidental renumbering.
type Kind uint8

// The event taxonomy. "Attempt" kinds fire before an operation may block
// (what a rule monitor wants: the intent, with the acting goroutine's held
// locks); "completion" kinds fire when the effect lands (what a tracer
// wants: the observable hand-off).
const (
	KindInvalid Kind = iota

	// Memory accesses on instrumented Vars. The race detector subscribes
	// to these plus the Map kinds; the tracer renders only the Var kinds,
	// mirroring the runtime's original trace surface.
	MemRead
	MemWrite
	// Memory accesses on instrumented MapVars (the "concurrent map
	// writes" model). Same payload as MemRead/MemWrite.
	MapRead
	MapWrite

	// Channel operations. ChanSend/ChanRecv/ChanClose are attempts;
	// the *Done kinds are completions (Aux carries the partner goroutine
	// for a hand-off or rendezvous, 0 when there is none).
	ChanSend
	ChanRecv
	ChanClose
	ChanSendDone
	ChanRecvDone
	ChanCloseClosed // close of an already-closed channel (about to panic)
	ChanSendClosed  // send on a closed channel (about to panic)
	ChanNil         // operation on a nil channel (blocks forever)

	// Select. SelectBlocking fires when a default-less select is about to
	// park; SelectReady fires when a ready select consumed a Chooser
	// decision (Dec = decision index, Counter = number of ready cases).
	SelectBlocking
	SelectReady

	// Locks. MutexLock/MutexUnlock are sync.Mutex; the RW kinds keep
	// reader/writer identity for tracing (a rule monitor that only cares
	// about "a lock was taken" subscribes to all of them). Detail is
	// "after wait" when the acquisition blocked first.
	MutexLock
	MutexTryLock // successful TryLock only; failed attempts emit nothing
	MutexUnlock
	RWRLock
	RWRUnlock
	RWWLock
	RWWUnlock

	// WaitGroup. Counter is the counter value after the operation; Delta
	// is the Add delta (-1 for Done). WGWaitEnd's Detail distinguishes
	// "immediate" returns from "released" ones.
	WGAdd
	WGDone
	WGNegative // counter went negative (about to panic)
	WGWaitStart
	WGWaitEnd

	// Once and Cond.
	OnceDo     // first Do only; later calls emit nothing
	CondWait   // about to release the mutex and park
	CondSignal // Counter = number of waiters at the signal
	CondBroadcast

	// Goroutine lifecycle. GoSpawn's Obj is the child's name and Aux its
	// id; GoPanic's Detail is the panic message; GoBlock/GoBlockForever
	// carry the blocking object in Obj and the block kind in Detail.
	GoSpawn
	GoExit
	GoPanic
	GoBlock
	GoBlockForever

	// Sched delivers one completed scheduler transition (the SchedStep
	// payload) — the raw material for dynamic partial-order reduction.
	// It fires at the next scheduler pick, or once at run end.
	Sched

	// FaultInject records one injected fault (package inject): Obj names
	// the object the faulted operation targeted, Detail is the fault
	// action name, and Counter is the numeric fault site. It fires before
	// the fault takes effect, so a trace shows the injection ahead of its
	// consequences.
	FaultInject

	// NumKinds bounds the Kind space for per-kind dispatch tables.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindInvalid: "invalid",
	MemRead:     "mem-read", MemWrite: "mem-write",
	MapRead: "map-read", MapWrite: "map-write",
	ChanSend: "chan-send", ChanRecv: "chan-recv", ChanClose: "chan-close",
	ChanSendDone: "chan-send-done", ChanRecvDone: "chan-recv-done",
	ChanCloseClosed: "chan-close-closed", ChanSendClosed: "chan-send-closed",
	ChanNil:        "chan-nil",
	SelectBlocking: "select-blocking", SelectReady: "select-ready",
	MutexLock: "mutex-lock", MutexTryLock: "mutex-trylock", MutexUnlock: "mutex-unlock",
	RWRLock: "rw-rlock", RWRUnlock: "rw-runlock", RWWLock: "rw-wlock", RWWUnlock: "rw-wunlock",
	WGAdd: "wg-add", WGDone: "wg-done", WGNegative: "wg-negative",
	WGWaitStart: "wg-wait-start", WGWaitEnd: "wg-wait-end",
	OnceDo: "once-do", CondWait: "cond-wait", CondSignal: "cond-signal",
	CondBroadcast: "cond-broadcast",
	GoSpawn:       "go-spawn", GoExit: "go-exit", GoPanic: "go-panic",
	GoBlock: "go-block", GoBlockForever: "go-block-forever",
	Sched:       "sched-step",
	FaultInject: "fault-inject",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < NumKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Kind(" + itoa(int(k)) + ")"
}

// itoa avoids importing strconv for the one cold error path above.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// VarMeta identifies an instrumented variable (Var or MapVar) in memory
// events.
type VarMeta struct {
	ID        int
	Name      string
	CreatedBy int
}

// ObjClass classifies the object a footprint entry refers to. IDs are only
// comparable within a class.
type ObjClass uint8

const (
	// ObjVar: an instrumented Var; ID is VarMeta.ID. Loads report
	// Write=false, so concurrent readers stay independent.
	ObjVar ObjClass = iota
	// ObjChan: a chanCore-backed object (channels, and the semaphore,
	// pipe, and context libraries built on them); ID is the channel id.
	// Nil-channel operations report ID 0 — a distinct object nothing else
	// touches, which is exact: a nil-channel operation commutes with
	// everything (it only parks its own goroutine forever).
	ObjChan
	// ObjSync: a mutex, rwmutex, waitgroup, once, cond, atomic, or map
	// variable; ID is the runtime's nextSyncID number.
	ObjSync
	// ObjSpawn: goroutine creation; ID is the child goroutine id. Nothing
	// else ever touches this object — the entry exists so the explorer can
	// root the child's causal clock in the spawning transition.
	ObjSpawn
	// ObjWorld: virtual time. Timer and ticker API calls and scheduler-
	// driven timer fires all touch this single object, making every
	// time-driven transition conservatively dependent on every other.
	ObjWorld
)

// OpRef is one footprint entry: an object the transition examined or
// mutated. Write=false is only reported for operations that commute with
// each other on the same object (Var and atomic loads).
type OpRef struct {
	Class ObjClass
	ID    int
	Write bool
}

// SchedStep describes one completed scheduler transition.
type SchedStep struct {
	// G is the goroutine that executed the transition.
	G int
	// Decision is the index of the Chooser call that picked G (the same
	// numbering as the explorer's recorded decision sequence), or -1 when
	// the pick was forced (a single runnable goroutine, or no Chooser).
	Decision int
	// OptionGs lists the runnable goroutine ids the pick chose among, in
	// the scheduler's option order. Preferred indexes the option that
	// continues the previously running goroutine (-1 when none).
	OptionGs  []int
	Preferred int
	// Ops is the transition's object footprint, in program order.
	Ops []OpRef
}

// Event is one observed runtime transition. The common header (Step..
// HeldLocks) is filled for every kind emitted from a running goroutine;
// the payload fields past it are kind-specific and zero elsewhere.
//
// Ownership: the runtime reuses one Event per run, and VC, HeldLocks, and
// the Sched payload's slices alias live runtime state. Sinks must not
// retain any of them past the callback — clone what must outlive it.
type Event struct {
	Kind Kind
	// Step and Time are the scheduler step count and virtual time at
	// emission.
	Step int64
	Time int64
	// G and GName identify the acting goroutine; VC is its live vector
	// clock and HeldLocks the lock names it currently holds.
	G         int
	GName     string
	VC        hb.VC
	HeldLocks []string

	// Obj names the object operated on (channel/lock/waitgroup/... report
	// name); ObjID is its dense per-class id.
	Obj   string
	ObjID int
	// Var identifies the variable of a memory event.
	Var *VarMeta
	// Counter and Delta carry WaitGroup counter/delta values, the number
	// of ready select cases (SelectReady), and the waiter count
	// (CondSignal).
	Counter int
	Delta   int
	// Aux is a partner goroutine id: the receiver of a channel hand-off,
	// the sender of a rendezvous, or the child of a GoSpawn. 0 means none
	// (goroutine ids start at 1).
	Aux int
	// Dec is the Chooser decision index a SelectReady consumed.
	Dec int
	// Detail is a kind-specific annotation ("after wait", "immediate",
	// a panic message, a block-kind name, ...). Always a shared or
	// pre-existing string — emission never formats.
	Detail string
	// Sched is the SchedStep payload; nil for every other kind.
	Sched *SchedStep
}

// Sink consumes a run's event stream.
type Sink interface {
	// Kinds returns the event kinds this sink wants to receive. It is
	// consulted once, when a Mux is built; a pooled runtime reuses that Mux
	// for every run given the same sink, so the answer must not change
	// over the sink's lifetime.
	Kinds() []Kind
	// Event delivers one event. See Event's ownership rules.
	Event(ev *Event)
}

// RunEnder is implemented by sinks that need an end-of-run signal (e.g. to
// flush streamed output). RunEnd fires exactly once per run, after the last
// event.
type RunEnder interface {
	RunEnd()
}

// Mux fans events out to sinks, pre-dispatched by kind.
type Mux struct {
	byKind [NumKinds][]Sink
	enders []RunEnder
	// sinks is a private copy of the list the table was built from, for
	// Serves. It lives in buf when it fits, so the copy costs no
	// allocation of its own.
	sinks []Sink
	buf   [8]Sink
}

// NewMux builds the dispatch table for sinks. Sinks appear in each kind's
// list in registration order; a sink listing a kind twice is delivered to
// once. Returns nil when sinks is empty, so callers can keep a single
// nil-check fast path.
func NewMux(sinks []Sink) *Mux {
	if len(sinks) == 0 {
		return nil
	}
	m := &Mux{}
	m.sinks = append(m.buf[:0], sinks...)
	for _, s := range sinks {
		if s == nil {
			continue
		}
		seen := [NumKinds]bool{}
		for _, k := range s.Kinds() {
			if k <= KindInvalid || k >= NumKinds || seen[k] {
				continue
			}
			seen[k] = true
			m.byKind[k] = append(m.byKind[k], s)
		}
		if e, ok := s.(RunEnder); ok {
			m.enders = append(m.enders, e)
		}
	}
	return m
}

// Serves reports whether m is the table NewMux(sinks) would build: the same
// sinks in the same order, compared by identity. A nil Mux serves the empty
// list. Only pointer sinks (and nil) have an identity to compare; a list
// holding any other sink never matches, so the caller rebuilds — it is what
// lets a pooled runtime keep one Mux across runs without trusting values
// whose comparison could panic.
func (m *Mux) Serves(sinks []Sink) bool {
	if m == nil {
		return len(sinks) == 0
	}
	if len(m.sinks) != len(sinks) {
		return false
	}
	for i, s := range sinks {
		if !sameSink(m.sinks[i], s) {
			return false
		}
	}
	return true
}

// sameSink is identity: both nil, or the same pointer. Interfaces holding
// different dynamic types compare unequal without panicking, so checking
// one side's kind is enough.
func sameSink(a, b Sink) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.TypeOf(a).Kind() == reflect.Pointer && a == b
}

// Wants reports whether any sink subscribed to k — the emission-site guard
// that lets the runtime skip assembling events nobody will see.
func (m *Mux) Wants(k Kind) bool { return len(m.byKind[k]) > 0 }

// Emit delivers ev to every sink subscribed to its kind.
func (m *Mux) Emit(ev *Event) {
	for _, s := range m.byKind[ev.Kind] {
		s.Event(ev)
	}
}

// RunEnd notifies every RunEnder sink that the run is over.
func (m *Mux) RunEnd() {
	for _, e := range m.enders {
		e.RunEnd()
	}
}

// AllKinds returns every valid kind — the subscription of a sink that wants
// the full stream (tracers, counters).
func AllKinds() []Kind {
	out := make([]Kind, 0, NumKinds-1)
	for k := KindInvalid + 1; k < NumKinds; k++ {
		out = append(out, k)
	}
	return out
}
