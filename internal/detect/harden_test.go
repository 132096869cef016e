package detect

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/sim"
)

// hardenProg is a small, bug-free program used by the hardening tests; slow
// enough (via yield loops) that cancellation can land mid-sweep.
func hardenProg(tt *sim.T) {
	ch := sim.NewChan[int](tt, 0)
	tt.Go(func(ct *sim.T) {
		for i := 0; i < 50; i++ {
			ct.Yield()
		}
		ch.Send(ct, 1)
	})
	ch.Recv(tt)
}

// boomInstance panics in Finish whenever the run's seed satisfies pred —
// the deliberately buggy detector of the pool-drain regression test.
type boomInstance struct{ pred func(seed int64) bool }

func (b *boomInstance) Kinds() []event.Kind { return nil }
func (b *boomInstance) Event(*event.Event)  {}
func (b *boomInstance) Finish(res *sim.Result) Verdict {
	if b.pred(res.Seed) {
		panic("detector bug: unhandled seed shape")
	}
	return Verdict{Detector: "boom"}
}

func boomDetector(pred func(seed int64) bool) Detector {
	return Detector{Name: "boom", Desc: "panics on chosen seeds", New: func() Instance {
		return &boomInstance{pred: pred}
	}}
}

// TestSweepSurvivesPanickingDetector: a panicking detector instance must not
// kill the worker pool — the sweep drains, panicked runs fold as Incomplete
// with ReasonPanic, and the healthy runs still count.
func TestSweepSurvivesPanickingDetector(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep := Sweep(hardenProg, SweepOptions{
			Runs: 12, BaseSeed: 100, Workers: workers,
		}, boomDetector(func(seed int64) bool { return seed%4 == 0 }))
		if rep.Completed != 9 {
			t.Fatalf("workers=%d: Completed = %d, want 9 (12 runs, seeds 100..111, 3 multiples of 4)", workers, rep.Completed)
		}
		if len(rep.Incomplete) != 3 {
			t.Fatalf("workers=%d: Incomplete = %+v, want the 3 panicked runs", workers, rep.Incomplete)
		}
		for _, inc := range rep.Incomplete {
			if inc.Reason != harness.ReasonPanic || inc.Seed%4 != 0 {
				t.Fatalf("workers=%d: incomplete run misclassified: %+v", workers, inc)
			}
		}
		if rep.Verdict.Status != harness.Incomplete || rep.Verdict.Reason != harness.ReasonPanic {
			t.Fatalf("workers=%d: verdict = %v, want incomplete(panic)", workers, rep.Verdict)
		}
	}
}

// TestSweepCancellationReturnsPartial: canceling the context mid-sweep stops
// dispatch promptly; completed runs fold, never-run seeds land in Incomplete
// with the context's reason, and the verdict says the sweep was cut short.
func TestSweepCancellationReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first run: everything is incomplete
	start := time.Now()
	rep := Sweep(hardenProg, SweepOptions{
		Runs: 5000, BaseSeed: 1, Workers: 2, Context: ctx,
	}, MustLookup("race"))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled sweep took %v", elapsed)
	}
	if rep.Completed != 0 || len(rep.Incomplete) != 5000 {
		t.Fatalf("completed=%d incomplete=%d, want 0/5000", rep.Completed, len(rep.Incomplete))
	}
	if rep.Verdict.Status != harness.Incomplete || rep.Verdict.Reason != harness.ReasonCanceled {
		t.Fatalf("verdict = %v, want incomplete(canceled)", rep.Verdict)
	}
}

// TestSweepDeadlineReturnsPartial: a deadline mid-sweep folds what finished
// and classifies the remainder as deadline-incomplete, within a bounded
// return time (in-flight runs finish, they are microseconds each).
func TestSweepDeadlineReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep := Sweep(hardenProg, SweepOptions{
		Runs: 200000, BaseSeed: 1, Workers: 2, Context: ctx,
	}, MustLookup("race"))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlined sweep took %v", elapsed)
	}
	if rep.Completed == 0 || rep.Completed >= 200000 {
		t.Fatalf("Completed = %d, want a strict partial result", rep.Completed)
	}
	if rep.Verdict.Status != harness.Incomplete || rep.Verdict.Reason != harness.ReasonDeadline {
		t.Fatalf("verdict = %v, want incomplete(deadline)", rep.Verdict)
	}
	if got := rep.Completed + len(rep.Incomplete); got != 200000 {
		t.Fatalf("completed+incomplete = %d, every seed must be accounted for", got)
	}
}

// stripElapsed zeroes the wall-time fields, which are legitimately different
// between runs of the same sweep.
func stripElapsed(rep *SweepReport) *SweepReport {
	cp := *rep
	cp.Detectors = append([]SweepStat(nil), rep.Detectors...)
	for i := range cp.Detectors {
		cp.Detectors[i].Elapsed = 0
	}
	return &cp
}

// countedInstance calls onFinish on every verdict its inner instance gives:
// one call per executed run, however often the sweep builds instances.
type countedInstance struct {
	Instance
	onFinish func()
}

func (c *countedInstance) Finish(res *sim.Result) Verdict {
	c.onFinish()
	return c.Instance.Finish(res)
}

// Reset forwards, so the sweep reuses the wrapped instance as it would the
// bare one.
func (c *countedInstance) Reset() { c.Instance.(resetter).Reset() }

func countingDetector(d Detector, onFinish func()) Detector {
	return Detector{Name: d.Name, Desc: d.Desc, New: func() Instance {
		return &countedInstance{Instance: d.New(), onFinish: onFinish}
	}}
}

// TestSweepCheckpointResumeFoldsIdentically is the resumability contract: a
// sweep interrupted mid-flight and resumed from its checkpoint folds to the
// same report as one that was never interrupted — and the resumed sweep only
// executes the missing seeds.
func TestSweepCheckpointResumeFoldsIdentically(t *testing.T) {
	race := MustLookup("race")
	baseline := Sweep(hardenProg, SweepOptions{Runs: 40, BaseSeed: 7, Workers: 1}, race)

	cp := filepath.Join(t.TempDir(), "sweep.json")
	opts := SweepOptions{Runs: 40, BaseSeed: 7, Workers: 1, Checkpoint: cp, CheckpointEvery: 5}

	// Leg 1: cancel after ~15 runs via a detector counting its verdicts.
	ctx, cancel := context.WithCancel(context.Background())
	executed := 0
	counting := countingDetector(race, func() {
		executed++
		if executed == 15 {
			cancel()
		}
	})
	o1 := opts
	o1.Context = ctx
	partial := Sweep(hardenProg, o1, counting)
	if partial.Completed == 0 || partial.Completed >= 40 {
		t.Fatalf("interrupted leg completed %d of 40, want a strict partial", partial.Completed)
	}

	// Leg 2: resume from the checkpoint, no cancellation.
	executed2 := 0
	counting2 := countingDetector(race, func() { executed2++ })
	resumed := Sweep(hardenProg, opts, counting2)
	if resumed.Completed != 40 {
		t.Fatalf("resumed sweep completed %d of 40: %+v", resumed.Completed, resumed.Verdict)
	}
	if executed2 >= 40 {
		t.Fatalf("resume re-executed everything (%d runs judged); checkpoint was ignored", executed2)
	}
	if executed2+partial.Completed != 40 {
		t.Fatalf("leg1 completed %d, leg2 executed %d; together they must cover exactly 40", partial.Completed, executed2)
	}
	if !reflect.DeepEqual(stripElapsed(resumed), stripElapsed(baseline)) {
		t.Fatalf("resumed fold differs from uninterrupted sweep:\n%+v\n%+v", stripElapsed(resumed), stripElapsed(baseline))
	}
}

// TestSweepCheckpointFingerprintMismatchStartsFresh: a checkpoint written
// under different options must be ignored, not half-applied.
func TestSweepCheckpointFingerprintMismatchStartsFresh(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.json")
	race := MustLookup("race")
	Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 7, Workers: 1, Checkpoint: cp}, race)
	rep := Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 8, Workers: 1, Checkpoint: cp}, race)
	if rep.Completed != 10 {
		t.Fatalf("mismatched checkpoint: completed %d, want a full fresh sweep", rep.Completed)
	}
}

// stripWarnings is stripElapsed without the process-local warnings either:
// the deterministic fold alone.
func stripWarnings(rep *SweepReport) *SweepReport {
	cp := stripElapsed(rep)
	cp.Warnings = nil
	return cp
}

// TestSweepWarnsOnFailedCheckpointSave: a checkpoint that cannot be written
// costs resumability, never the fold — and the report says so.
func TestSweepWarnsOnFailedCheckpointSave(t *testing.T) {
	race := MustLookup("race")
	plain := Sweep(hardenProg, SweepOptions{Runs: 30, BaseSeed: 7, Workers: 1}, race)
	if len(plain.Warnings) != 0 {
		t.Fatalf("plain sweep warned: %q", plain.Warnings)
	}
	cp := filepath.Join(t.TempDir(), "no-such-dir", "sweep.json")
	rep := Sweep(hardenProg, SweepOptions{Runs: 30, BaseSeed: 7, Workers: 1, Checkpoint: cp, CheckpointEvery: 10}, race)
	if !reflect.DeepEqual(stripWarnings(rep), stripWarnings(plain)) {
		t.Fatalf("failed saves changed the fold:\n%+v\n%+v", stripWarnings(rep), stripWarnings(plain))
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "4 of 4 checkpoint saves") ||
		!strings.Contains(rep.Warnings[0], cp) {
		t.Fatalf("Warnings = %q, want one naming the 4 failed saves to %s", rep.Warnings, cp)
	}
}

// TestSweepWarnsOnIgnoredCheckpoint: a checkpoint the sweep cannot resume
// from — written under other options, or unreadable — is ignored with a
// warning, and the fold is that of a fresh sweep. A matching checkpoint
// resumes silently.
func TestSweepWarnsOnIgnoredCheckpoint(t *testing.T) {
	race := MustLookup("race")
	dir := t.TempDir()
	fresh := Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 8, Workers: 1}, race)

	mismatched := filepath.Join(dir, "other-options.json")
	Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 7, Workers: 1, Checkpoint: mismatched}, race)
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{mismatched: "different options", corrupt: "decoding checkpoint"} {
		rep := Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 8, Workers: 1, Checkpoint: path}, race)
		if !reflect.DeepEqual(stripWarnings(rep), stripWarnings(fresh)) {
			t.Fatalf("%s: fold differs from a fresh sweep:\n%+v\n%+v", path, stripWarnings(rep), stripWarnings(fresh))
		}
		if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "ignoring checkpoint "+path) ||
			!strings.Contains(rep.Warnings[0], want) {
			t.Fatalf("%s: Warnings = %q, want one saying it was ignored (%s)", path, rep.Warnings, want)
		}
		// The sweep overwrote the file with its own records: resuming
		// from it is now silent.
		again := Sweep(hardenProg, SweepOptions{Runs: 10, BaseSeed: 8, Workers: 1, Checkpoint: path}, race)
		if len(again.Warnings) != 0 {
			t.Fatalf("%s: resuming a matching checkpoint warned: %q", path, again.Warnings)
		}
	}
}

// TestSweepWorkerIndependenceUnderInjection: with per-run injectors derived
// purely from (run, seed), the folded report is bit-identical for any worker
// count — the property that makes sweep hits replayable with one command.
func TestSweepWorkerIndependenceUnderInjection(t *testing.T) {
	injOpts := inject.Options{Seed: 5, Budget: 3}
	mk := func(workers int) *SweepReport {
		return stripElapsed(Sweep(hardenProg, SweepOptions{
			Runs: 30, BaseSeed: 3, Workers: workers,
			InjectorFor: func(run int, seed int64) sim.Injector { return inject.ForRun(injOpts, run) },
		}, MustLookup("race"), MustLookup("leak")))
	}
	serial := mk(1)
	parallel := mk(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 folds differ under injection:\n%+v\n%+v", serial, parallel)
	}
}
