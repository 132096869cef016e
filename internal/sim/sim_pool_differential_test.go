package sim_test

// Differential test pinning the RunPool equivalence contract: for any
// program and configuration, pool.Run must be observably bit-identical to a
// fresh sim.Run — same Result, same event stream, same detector verdicts.
// The pool is deliberately SHARED across every kernel and variant, so each
// run recycles a runtime shaped by a completely different program (the
// hardest case for slot/arena reuse).

import (
	"reflect"
	"testing"

	"goconcbugs/internal/event"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// diffOne runs prog once fresh and once on the pool under identical
// configurations and fails the test on any observable divergence.
func diffOne(t *testing.T, pool *sim.RunPool, label string, cfg sim.Config, prog sim.Program,
	injFor func() sim.Injector) {
	t.Helper()

	run := func(pooled bool) (*sim.Result, *sim.TraceCollector, *race.Detector, *vet.Monitor) {
		tr := &sim.TraceCollector{}
		det := race.New(-1)
		vt := vet.New()
		c := cfg
		c.Sinks = []event.Sink{tr, det, vt}
		if injFor != nil {
			c.Injector = injFor()
		}
		if pooled {
			return pool.Run(c, prog).Clone(), tr, det, vt
		}
		return sim.Run(c, prog), tr, det, vt
	}

	fres, ftr, fdet, fvet := run(false)
	pres, ptr, pdet, pvet := run(true)

	if !reflect.DeepEqual(fres, pres) {
		t.Errorf("%s: Result differs\n  fresh:  %+v\n  pooled: %+v", label, fres, pres)
	}
	fe, pe := ftr.Events(), ptr.Events()
	if len(fe) != len(pe) {
		t.Fatalf("%s: trace length differs fresh=%d pooled=%d", label, len(fe), len(pe))
	}
	for i := range fe {
		if fe[i] != pe[i] {
			t.Fatalf("%s: trace diverges at event %d:\n  fresh:  %s\n  pooled: %s",
				label, i, fe[i], pe[i])
		}
	}
	fr, pr := fdet.Reports(), pdet.Reports()
	if len(fr) != len(pr) {
		t.Fatalf("%s: race report count differs fresh=%d pooled=%d", label, len(fr), len(pr))
	}
	for i := range fr {
		if fr[i].String() != pr[i].String() {
			t.Errorf("%s: race report %d differs:\n  fresh:  %s\n  pooled: %s",
				label, i, fr[i], pr[i])
		}
	}
	fv, pv := fvet.Violations(), pvet.Violations()
	if len(fv) != len(pv) {
		t.Fatalf("%s: vet violation count differs fresh=%d pooled=%d", label, len(fv), len(pv))
	}
	for i := range fv {
		if fv[i].String() != pv[i].String() {
			t.Errorf("%s: vet violation %d differs:\n  fresh:  %s\n  pooled: %s",
				label, i, fv[i], pv[i])
		}
	}
}

// TestPooledMatchesFreshOnAllKernels sweeps every kernel, both variants,
// several seeds, through ONE shared pool interleaved with fresh runs.
func TestPooledMatchesFreshOnAllKernels(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, k := range kernels.All() {
		for _, v := range []struct {
			name string
			prog sim.Program
		}{{"buggy", k.Buggy}, {"fixed", k.Fixed}} {
			for _, seed := range seeds {
				label := k.ID + "/" + v.name
				diffOne(t, pool, label, k.Config(seed), v.prog, nil)
			}
		}
	}
}

// TestPooledMatchesFreshUnderBenignInjection repeats the sweep with a
// benign (yield-only) fault injector — injected scheduling perturbations
// must land identically on recycled and fresh runtimes.
func TestPooledMatchesFreshUnderBenignInjection(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	ks := kernels.All()
	if testing.Short() {
		ks = ks[:8]
	}
	for run, k := range ks {
		opts := inject.Options{Seed: 11, Budget: 6}
		injFor := func() sim.Injector { return inject.ForRun(opts, run) }
		diffOne(t, pool, k.ID+"/buggy+inject", k.Config(3), k.Buggy, injFor)
		diffOne(t, pool, k.ID+"/fixed+inject", k.Config(3), k.Fixed, injFor)
	}
}

// TestPooledResultCloneSurvivesRecycling pins the Clone contract: a cloned
// Result must stay intact after the pool reuses its runtime.
func TestPooledResultCloneSurvivesRecycling(t *testing.T) {
	pool := sim.NewRunPool()
	defer pool.Close()
	k := kernels.All()[0]
	first := pool.Run(k.Config(1), k.Buggy).Clone()
	want := pool.Run(k.Config(1), k.Buggy).Clone() // deterministic: same seed
	for _, other := range kernels.All()[1:4] {
		pool.Run(other.Config(2), other.Fixed)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("cloned Result mutated by later pooled runs:\n  got:  %+v\n  want: %+v", first, want)
	}
}

// kindCounter counts the events it receives.
type kindCounter struct {
	kinds []event.Kind
	n     int
}

func (c *kindCounter) Kinds() []event.Kind { return c.kinds }
func (c *kindCounter) Event(*event.Event)  { c.n++ }

// TestPooledMuxFollowsSinkChanges: a pool keeps its event mux only while
// each run hands it the same sinks. Reused, swapped, dropped and re-added
// sinks must each see exactly the events a fresh run delivers.
func TestPooledMuxFollowsSinkChanges(t *testing.T) {
	k, ok := kernels.ByID("cockroachdb-6111-status")
	if !ok {
		t.Fatal("kernel cockroachdb-6111-status not registered")
	}
	all := &kindCounter{kinds: event.AllKinds()}
	mem := &kindCounter{kinds: []event.Kind{event.MemRead, event.MemWrite}}
	pool := sim.NewRunPool()
	defer pool.Close()
	for i, sinks := range [][]*kindCounter{{all}, {all}, {mem}, nil, {all, mem}, {mem, all}, {mem, all}} {
		cfg := k.Config(int64(i))
		var fresh []*kindCounter
		pc, fc := cfg, cfg
		for _, s := range sinks {
			s.n = 0
			f := &kindCounter{kinds: s.kinds}
			fresh = append(fresh, f)
			pc.Sinks = append(pc.Sinks, s)
			fc.Sinks = append(fc.Sinks, f)
		}
		pool.Run(pc, k.Buggy)
		sim.Run(fc, k.Buggy)
		for j, s := range sinks {
			if s.n != fresh[j].n || s.n == 0 {
				t.Fatalf("run %d sink %d: pooled saw %d events, fresh %d", i, j, s.n, fresh[j].n)
			}
		}
	}
}
