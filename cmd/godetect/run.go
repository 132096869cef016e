package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/inject"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
)

// submitter is the execution backend every one-shot mode runs against: an
// in-process engine or a daemon client. Both return the same canonical
// Result — the CLI only prints Text and derives exit codes.
type submitter interface {
	Submit(ctx context.Context, job engine.Job) (*engine.Result, error)
	Stats(ctx context.Context) (engine.Stats, error)
}

type localSubmitter struct{ eng *engine.Engine }

// Submit waits on a background context: the engine's own (signal) context
// bounds execution, and a canceled sweep still folds partial results the
// user should see.
func (s localSubmitter) Submit(_ context.Context, job engine.Job) (*engine.Result, error) {
	return s.eng.Submit(context.Background(), job)
}

func (s localSubmitter) Stats(context.Context) (engine.Stats, error) { return s.eng.Stats(), nil }

type remoteSubmitter struct{ c *engine.Client }

func (s remoteSubmitter) Submit(ctx context.Context, job engine.Job) (*engine.Result, error) {
	return s.c.Submit(ctx, job)
}

func (s remoteSubmitter) Stats(ctx context.Context) (engine.Stats, error) { return s.c.Stats(ctx) }

// Health exposes the daemon's load-and-liveness snapshot; printStats folds
// it into the -stats JSON for remote backends only (local health is the
// process itself).
func (s remoteSubmitter) Health(ctx context.Context) (engine.Health, error) { return s.c.Health(ctx) }

// engineJob is the parsed flag set in job-building form: job() spells it as
// an engine.Job for one kernel.
type engineJob struct {
	fixed            bool
	runs             int
	seed             int64
	dets             []string
	injOpts          *inject.Options
	shadow           int
	vet              bool
	systematic, dpor bool
	maxRuns          int
	shards, shardIdx int
	fold             bool
	record           string
	replay           string
	resume           string
	deadline         time.Duration
}

func (b engineJob) job(kernelID string, all bool) engine.Job {
	j := engine.Job{Kernel: kernelID, Fixed: b.fixed, Seed: b.seed, Deadline: b.deadline}
	if b.injOpts != nil {
		j.Faults, j.FaultSeed, j.Aggressive = b.injOpts.Budget, b.injOpts.Seed, b.injOpts.Aggressive
	}
	switch {
	case b.systematic:
		j.Kind = engine.KindSystematic
		j.MaxRuns, j.DPOR = b.maxRuns, b.dpor
	case len(b.dets) > 0:
		j.Kind = engine.KindSweep
		j.Runs = b.runs
		j.Detectors = b.dets
		j.Checkpoint = b.resume
		j.RecordDir, j.ReplayDir = b.record, b.replay
		if all {
			// -all splits checkpoints and archives per kernel.
			if b.resume != "" {
				j.Checkpoint = b.resume + "." + kernelID
			}
			j.RecordDir = kernelDir(b.record, kernelID)
			j.ReplayDir = kernelDir(b.replay, kernelID)
		}
		if b.shards > 1 {
			j.Shards, j.Shard = b.shards, b.shardIdx
		}
		j.Fold = b.fold
	default:
		j.Kind = engine.KindRun
		j.Runs = b.runs
		j.Shadow = b.shadow
		j.Vet = b.vet
	}
	return j
}

// fireExit turns a result's fired bit into the mode's exit code: detector
// sweeps gate -fixed kernels, plain sweeps gate -fixed only under fault
// injection (the chaos gate), systematic exploration always exits 0.
func (b engineJob) fireExit(res *engine.Result) int {
	if !res.Fired || !b.fixed {
		return 0
	}
	switch {
	case b.systematic:
		return 0
	case len(b.dets) > 0:
		return 1
	case b.injOpts != nil:
		return 1
	}
	return 0
}

// runOne executes the single-kernel mode.
func runOne(ctx context.Context, sub submitter, kernelID string, b engineJob) int {
	res, err := sub.Submit(ctx, b.job(kernelID, false))
	if err != nil {
		fmt.Fprintln(os.Stderr, "godetect:", err)
		return 1
	}
	printResult(res)
	return b.fireExit(res)
}

// printResult prints a result's canonical text to stdout and its warnings
// to stderr, so the verdict bytes stay the same either way.
func printResult(res *engine.Result) {
	fmt.Print(res.Text)
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "godetect: warning:", w)
	}
}

// runAll sweeps every registered kernel, folding the per-kernel exit codes
// the way the classic CLI did: any -fixed fire fails the invocation.
func runAll(ctx context.Context, sub submitter, b engineJob) int {
	code := 0
	for _, k := range kernels.All() {
		res, err := sub.Submit(ctx, b.job(k.ID, true))
		if err != nil {
			fmt.Fprintln(os.Stderr, "godetect:", err)
			return 1
		}
		printResult(res)
		if b.fireExit(res) != 0 {
			code = 1
		}
	}
	return code
}

// runConformanceJob executes the -conformance sweep; divergences exit 1.
func runConformanceJob(ctx context.Context, sub submitter, programs int, seed int64, kinds string, deadline time.Duration) int {
	res, err := sub.Submit(ctx, engine.Job{
		Kind: engine.KindConformance, Programs: programs, Seed: seed,
		Families: kinds, Deadline: deadline,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "godetect:", err)
		return 1
	}
	fmt.Print(res.Text)
	if res.Fired {
		return 1
	}
	return 0
}

// injectorFor adapts fault options to the per-run injector hook of the
// exploration harnesses; nil options mean no injection. (The engine builds
// its own from job fields — this adapter serves the CLI-local fault table.)
func injectorFor(injOpts *inject.Options) func(run int, seed int64) sim.Injector {
	if injOpts == nil {
		return nil
	}
	opts := *injOpts
	return func(run int, seed int64) sim.Injector { return inject.ForRun(opts, run) }
}

// printStats renders the backend's counters as JSON (the -stats flag). A
// remote backend additionally reports the daemon's /v1/health snapshot
// under a "health" key; the stats fields stay top-level so existing
// consumers keep parsing. A failed health fetch (an older daemon without
// the endpoint, say) is non-fatal: the stats still print, with the error
// noted under "healthError" instead.
func printStats(ctx context.Context, sub submitter) error {
	st, err := sub.Stats(ctx)
	if err != nil {
		return err
	}
	var out any = st
	if h, ok := sub.(interface {
		Health(context.Context) (engine.Health, error)
	}); ok {
		var m map[string]any
		raw, err := json.Marshal(st)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return err
		}
		if health, herr := h.Health(ctx); herr != nil {
			m["healthError"] = herr.Error()
		} else {
			m["health"] = health
		}
		out = m
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}
