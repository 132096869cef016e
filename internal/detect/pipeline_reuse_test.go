package detect

// The pipeline-reuse differential suite. A Sweep worker builds each
// detector instance once and Resets it between seeds; RunAll builds fresh
// instances on every call. These tests pin that the two are
// indistinguishable seed by seed — every verdict and every per-detector
// event count — on every kernel (buggy and fixed), under aggressive fault
// injection, and when a detector panics on some seeds and forces the worker
// to rebuild its pipeline.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

const reuseSeeds = 50

// sweepRecords sweeps prog with a checkpoint and returns its per-run
// records: exactly what the sweep folded, seed by seed.
func sweepRecords(t *testing.T, prog sim.Program, opts SweepOptions, dets []Detector) []*sweepRecord {
	t.Helper()
	opts.Checkpoint = filepath.Join(t.TempDir(), "sweep.json")
	rep := Sweep(prog, opts, dets...)
	if len(rep.Warnings) > 0 {
		t.Fatalf("sweep warned: %q", rep.Warnings)
	}
	var cp sweepCheckpoint
	if err := harness.LoadCheckpoint(opts.Checkpoint, &cp); err != nil {
		t.Fatal(err)
	}
	return cp.Records
}

// matchFresh requires every completed record to equal a fresh RunAll of the
// same seed, and returns how many records it compared.
func matchFresh(t *testing.T, label string, prog sim.Program, opts SweepOptions, dets []Detector, recs []*sweepRecord) int {
	t.Helper()
	compared := 0
	for i, rec := range recs {
		if rec == nil {
			t.Fatalf("%s: run %d missing from the checkpoint", label, i)
		}
		if rec.Err != nil {
			continue
		}
		cfg := opts.Config
		cfg.Seed = opts.BaseSeed + int64(i)
		if opts.InjectorFor != nil {
			cfg.Injector = opts.InjectorFor(i, cfg.Seed)
		}
		fresh := RunAll(cfg, prog, dets...)
		events := make([]int64, len(dets))
		for di := range dets {
			events[di] = fresh.Stats[di].Events
		}
		if !reflect.DeepEqual(rec.Verdicts, fresh.Verdicts) {
			t.Fatalf("%s: run %d (seed %d) verdicts differ from a fresh pipeline:\n  reused: %+v\n  fresh:  %+v",
				label, i, cfg.Seed, rec.Verdicts, fresh.Verdicts)
		}
		if !reflect.DeepEqual(rec.Events, events) {
			t.Fatalf("%s: run %d (seed %d) event counts differ from a fresh pipeline: reused %v, fresh %v",
				label, i, cfg.Seed, rec.Events, events)
		}
		compared++
	}
	return compared
}

func TestReusedPipelineMatchesFreshOnKernels(t *testing.T) {
	dets := All()
	for _, k := range kernels.All() {
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			for _, fixed := range []bool{false, true} {
				prog, variant := k.Buggy, "buggy"
				if fixed {
					prog, variant = k.Fixed, "fixed"
				}
				for _, workers := range []int{1, 4} {
					opts := SweepOptions{Runs: reuseSeeds, BaseSeed: 1, Config: k.Config(1), Workers: workers}
					label := fmt.Sprintf("%s workers=%d", variant, workers)
					if n := matchFresh(t, label, prog, opts, dets, sweepRecords(t, prog, opts, dets)); n != reuseSeeds {
						t.Fatalf("%s: compared %d of %d runs", label, n, reuseSeeds)
					}
				}
			}
		})
	}
}

func TestReusedPipelineMatchesFreshUnderInjection(t *testing.T) {
	injOpts := inject.Options{Seed: 11, Budget: 4, Aggressive: true}
	dets := All()
	for _, k := range kernels.All() {
		t.Run(k.ID, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				opts := SweepOptions{
					Runs: reuseSeeds, BaseSeed: 3, Config: k.Config(3), Workers: workers,
					InjectorFor: func(run int, seed int64) sim.Injector { return inject.ForRun(injOpts, run) },
				}
				label := fmt.Sprintf("workers=%d", workers)
				if n := matchFresh(t, label, k.Buggy, opts, dets, sweepRecords(t, k.Buggy, opts, dets)); n != reuseSeeds {
					t.Fatalf("%s: compared %d of %d runs", label, n, reuseSeeds)
				}
			}
		})
	}
}

// panicAt is an injector that panics on its nth consultation: a host bug
// in the middle of the run, after the detectors have seen part of its event
// stream. It injects nothing.
type panicAt struct{ n int }

func (p *panicAt) Consult(sim.FaultSite, int, string) sim.FaultAction {
	if p.n--; p.n == 0 {
		panic("injector bug: mid-run")
	}
	return sim.FaultNone
}

// TestReusedPipelineMatchesFreshAfterPanics: after a seed panics the worker
// rebuilds its pipeline, so every seed that did not panic still matches a
// fresh pipeline — whether the panic hit in a detector's Finish
// (boomDetector) or in the middle of the run's event stream.
func TestReusedPipelineMatchesFreshAfterPanics(t *testing.T) {
	k, ok := kernels.ByID("docker-24007-double-close")
	if !ok {
		t.Fatal("kernel docker-24007-double-close not registered")
	}
	boomSeed := func(seed int64) bool { return seed%7 == 0 }
	midSeed := func(seed int64) bool { return seed%5 == 1 }
	dets := append([]Detector{boomDetector(boomSeed)}, All()...)
	for _, workers := range []int{1, 4} {
		opts := SweepOptions{Runs: reuseSeeds, BaseSeed: 1, Config: k.Config(1), Workers: workers,
			InjectorFor: func(run int, seed int64) sim.Injector {
				if midSeed(seed) {
					return &panicAt{n: 3}
				}
				return nil
			}}
		label := fmt.Sprintf("workers=%d", workers)
		recs := sweepRecords(t, k.Buggy, opts, dets)
		panicked := 0
		for i, rec := range recs {
			seed := opts.BaseSeed + int64(i)
			if want := boomSeed(seed) || midSeed(seed); (rec.Err != nil) != want {
				t.Fatalf("%s: run %d (seed %d): panicked=%v, want %v", label, i, seed, rec.Err != nil, want)
			}
			if rec.Err != nil {
				panicked++
			}
		}
		if n := matchFresh(t, label, k.Buggy, opts, dets, recs); n != reuseSeeds-panicked {
			t.Fatalf("%s: compared %d runs, want the %d that did not panic", label, n, reuseSeeds-panicked)
		}
	}
}
