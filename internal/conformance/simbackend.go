package conformance

import (
	"fmt"
	"time"

	"goconcbugs/internal/sim"
)

// Duration ranks map to backend-specific durations. The simulator runs on
// virtual time, so its unit is nominal; the host units are chosen large
// enough that real scheduling noise cannot fire a timeout before a merely
// slow (but runnable) counterpart acts, yet small enough to stay far under
// the oracle's FinishPatience watchdog.
func simDur(rank int) time.Duration { return time.Duration(rank) * time.Millisecond }

func hostAfterDur(rank int) time.Duration { return time.Duration(rank) * 100 * time.Millisecond }

// hostTickDur is shorter than hostAfterDur: ticker ticks are unconditional
// (no competing case can lose to them), so they only need to be nonzero.
func hostTickDur(rank int) time.Duration { return time.Duration(rank) * 3 * time.Millisecond }

// simCond is a cond resource's instantiation: the cond, its dedicated
// mutex, and its ready predicate. The predicate is a sim.Var (not a plain
// bool) so DPOR footprints and the HB race detector see its accesses.
type simCond struct {
	mu    *sim.Mutex
	c     *sim.Cond
	ready *sim.Var[int64]
}

// simEnv is one run's instantiation of a program's resources on the
// simulated runtime. The oracle reads terminal var state from it after
// sim.Run returns.
type simEnv struct {
	p       *Program
	chans   []sim.Chan[int64]
	mus     []*sim.Mutex
	rws     []*sim.RWMutex
	wgs     []*sim.WaitGroup
	onces   []*sim.Once
	vars    []*sim.Var[int64]
	conds   []*simCond
	ctxs    []*sim.Context
	cancels []sim.CancelFunc
	sems    []*sim.Semaphore
}

// SimProgram compiles p into a sim.Program for external harnesses (the
// offline-replay differential suite runs generated programs through the
// detector pipeline). The final-variable environment is discarded, so the
// program is safe to run from several sweep workers at once; callers that
// need terminal signatures go through ExploreSim instead.
func SimProgram(p *Program) sim.Program {
	return compileSim(p, nil)
}

// simProgram compiles p into a sim.Program. Every invocation builds fresh
// resources, so the same value can be run under many seeds or schedules; the
// returned slot points at the environment of the most recently *started*
// run, which equals the just-finished run whenever runs are serial (the
// conformance oracle explores with Workers == 1 for exactly this reason).
func simProgram(p *Program) (prog sim.Program, envSlot **simEnv) {
	slot := new(*simEnv)
	return compileSim(p, slot), slot
}

// compileSim is simProgram with the slot optional: nil records nothing.
func compileSim(p *Program, slot **simEnv) sim.Program {
	return func(t *sim.T) {
		env := &simEnv{p: p}
		if slot != nil {
			*slot = env
		}
		for i, d := range p.Chans {
			if d.Nil {
				env.chans = append(env.chans, sim.NilChan[int64]())
				continue
			}
			env.chans = append(env.chans, sim.NewChanNamed[int64](t, fmt.Sprintf("c%d", i), d.Cap))
		}
		for i := 0; i < p.Mutexes; i++ {
			env.mus = append(env.mus, sim.NewMutex(t, fmt.Sprintf("mu%d", i)))
		}
		for i := 0; i < p.RWMutexes; i++ {
			env.rws = append(env.rws, sim.NewRWMutex(t, fmt.Sprintf("rw%d", i)))
		}
		for i := 0; i < p.WaitGroups; i++ {
			env.wgs = append(env.wgs, sim.NewWaitGroup(t, fmt.Sprintf("wg%d", i)))
		}
		for i := 0; i < p.Onces; i++ {
			env.onces = append(env.onces, sim.NewOnce(t, fmt.Sprintf("once%d", i)))
		}
		for i := 0; i < p.Vars; i++ {
			env.vars = append(env.vars, sim.NewVar[int64](t, fmt.Sprintf("v%d", i)))
		}
		for i := 0; i < p.Conds; i++ {
			mu := sim.NewMutex(t, fmt.Sprintf("cond%d.mu", i))
			env.conds = append(env.conds, &simCond{
				mu:    mu,
				c:     sim.NewCond(t, mu, fmt.Sprintf("cond%d", i)),
				ready: sim.NewVar[int64](t, fmt.Sprintf("cond%d.ready", i)),
			})
		}
		for _, d := range p.Ctxs {
			parent := sim.Background(t)
			if d.Parent >= 0 {
				parent = env.ctxs[d.Parent]
			}
			ctx, cancel := sim.WithCancel(t, parent)
			env.ctxs = append(env.ctxs, ctx)
			env.cancels = append(env.cancels, cancel)
		}
		for i, n := range p.Sems {
			env.sems = append(env.sems, sim.NewSemaphore(t, fmt.Sprintf("sem%d", i), n))
		}
		env.exec(t, p.Goroutines[0])
	}
}

// exec interprets a statement list on the simulated runtime.
func (env *simEnv) exec(t *sim.T, body []Stmt) {
	for _, s := range body {
		switch s.Kind {
		case StSpawn:
			gBody := env.p.Goroutines[s.G]
			t.GoNamed(fmt.Sprintf("g%d", s.G), func(t *sim.T) {
				env.exec(t, gBody)
			})
		case StSend:
			env.chans[s.Ch].Send(t, s.Val)
		case StRecv:
			v, _ := env.chans[s.Ch].Recv(t)
			if s.Dst >= 0 {
				env.vars[s.Dst].Store(t, v)
			}
		case StClose:
			env.chans[s.Ch].Close(t)
		case StSelect:
			cases := make([]sim.Case, 0, len(s.Cases)+1)
			for _, c := range s.Cases {
				switch {
				case c.CtxDone:
					cases = append(cases, sim.OnRecv[struct{}](env.ctxs[c.Cx].Done(), nil))
				case c.Timeout:
					cases = append(cases, sim.OnRecv[int64](sim.After(t, simDur(c.Dur)), nil))
				case c.Send:
					cases = append(cases, sim.OnSend(env.chans[c.Ch], c.Val, nil))
				case c.Dst >= 0:
					dst := c.Dst
					cases = append(cases, sim.OnRecv(env.chans[c.Ch], func(v int64, ok bool) {
						env.vars[dst].Store(t, v)
					}))
				default:
					cases = append(cases, sim.OnRecv[int64](env.chans[c.Ch], nil))
				}
			}
			if s.HasDefault {
				cases = append(cases, sim.Default(nil))
			}
			sim.Select(t, cases...)
		case StLock:
			env.mus[s.Mu].Lock(t)
		case StUnlock:
			env.mus[s.Mu].Unlock(t)
		case StRLock:
			env.rws[s.Mu].RLock(t)
		case StRUnlock:
			env.rws[s.Mu].RUnlock(t)
		case StWLock:
			env.rws[s.Mu].Lock(t)
		case StWUnlock:
			env.rws[s.Mu].Unlock(t)
		case StWgAdd:
			env.wgs[s.Wg].Add(t, int(s.Val))
		case StWgDone:
			env.wgs[s.Wg].Done(t)
		case StWgWait:
			env.wgs[s.Wg].Wait(t)
		case StOnceDo:
			env.onces[s.O].Do(t, func(t *sim.T) {
				env.exec(t, s.Body)
			})
		case StVarStore:
			env.vars[s.Dst].Store(t, s.Val)
		case StVarAdd:
			v := env.vars[s.Dst].Load(t)
			env.vars[s.Dst].Store(t, v+s.Val)
		case StYield:
			t.Yield()
		case StCondWait:
			cd := env.conds[s.C]
			cd.mu.Lock(t)
			if s.ForGuard {
				for cd.ready.Load(t) == 0 {
					cd.c.Wait(t)
				}
			} else if cd.ready.Load(t) == 0 {
				cd.c.Wait(t)
			}
			cd.mu.Unlock(t)
		case StCondSignal, StCondBroadcast:
			cd := env.conds[s.C]
			cd.mu.Lock(t)
			if s.SetReady {
				cd.ready.Store(t, 1)
			}
			if s.Kind == StCondSignal {
				cd.c.Signal(t)
			} else {
				cd.c.Broadcast(t)
			}
			cd.mu.Unlock(t)
		case StTimerAfter:
			sim.After(t, simDur(s.Dur)).Recv(t)
		case StTickerLoop:
			tk := sim.NewTickerN(t, simDur(s.Dur), s.N)
			for i := 0; i < s.N; i++ {
				tk.C.Recv(t)
			}
			tk.Stop(t)
		case StCtxCancel:
			env.cancels[s.Cx](t)
		case StCtxDone:
			env.ctxs[s.Cx].Done().Recv(t)
		case StSemAcquire:
			env.sems[s.Sem].Acquire(t)
		case StSemRelease:
			env.sems[s.Sem].Release(t)
		default:
			panic(fmt.Sprintf("conformance: unknown statement kind %d", s.Kind))
		}
	}
}

// finalVars snapshots terminal var state after a run.
func (env *simEnv) finalVars() []int64 {
	out := make([]int64, len(env.vars))
	for i, v := range env.vars {
		out[i] = v.Peek()
	}
	return out
}
