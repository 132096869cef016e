package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"goconcbugs/internal/detect"
	"goconcbugs/internal/engine"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/kernels"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/store"
)

// probes calls each layer's public functions one layer deeper at a time on
// the seeded job mix, so every layer has a measured unit cost in every
// traced run — including layers the workload itself bypasses. Subtracting
// adjacent layers (RunAll minus sim.Run, Engine.Submit minus detect.Sweep,
// Client.Submit minus Engine.Submit) gives a layer's own cost without any
// span inside the program.
type probes struct {
	b   *bench
	tr  *tracer
	lg  *ledger
	ctx context.Context

	events  map[string]float64 // detector → events per run
	ckBytes float64            // checkpoint bytes per run
	tally   fleetTally         // scheduling counters of the probe fleet runs
	// coldDiffs are Engine.Submit minus detect.Sweep of the same job, µs,
	// one per back-to-back pair: the engine's share of a cold job is small
	// next to a sweep's run-to-run noise, so it is taken as a median of
	// paired differences.
	coldDiffs []float64
	// selfDiffs are RunAll minus the fresh sim.Run of the same seed, µs,
	// per detector name ("" = all four), paired for the same reason.
	selfDiffs map[string][]float64
}

// coldPairs is how many Sweep/Submit pairs each heavy probe job times.
const coldPairs = 10

func runProbes(ctx context.Context, b *bench, tr *tracer, lg *ledger) (*probes, error) {
	p := &probes{b: b, tr: tr, lg: lg, ctx: ctx, events: map[string]float64{}, selfDiffs: map[string][]float64{}}
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	light := jobMix(rng, b.sz.probeRuns, b.sz.jobs)
	heavy := jobMix(rng, b.sz.probeJobRuns, min(b.sz.probeJobs, len(light)))
	p.runs(light)
	for _, step := range []func([]engine.Job) error{p.sweeps, p.services, p.fleet} {
		if err := step(heavy); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// program resolves a job to its kernel variant exactly as the engine does.
func program(j engine.Job) (sim.Program, func(int64) sim.Config) {
	k, _ := kernels.ByID(j.Kernel)
	if j.Fixed {
		return k.Fixed, k.Config
	}
	return k.Buggy, k.Config
}

func dets(names ...string) []detect.Detector {
	out := make([]detect.Detector, len(names))
	for i, n := range names {
		out[i] = detect.MustLookup(n)
	}
	return out
}

// timed runs fn as one span of the probe's job.
func (p *probes) timed(name string, job int64, runs int64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	p.tr.addWork(name, job, p.tr.id(), 0, t0, t1, runs, 0)
	return t1.Sub(t0)
}

// runs times single runs: sim alone (fresh and pooled), then RunAll with
// all detectors and with each detector alone. Each seed is run once
// untimed first, so no timed call pays for cold caches the others skip;
// a detector's self time is then RunAll minus the fresh sim.Run of the
// same seed, taken as a median over seeds.
func (p *probes) runs(jobs []engine.Job) {
	pool := sim.NewRunPool()
	defer pool.Close()
	all := dets(detectors...)
	var total float64
	for _, j := range jobs {
		prog, cfgFor := program(j)
		job := p.tr.id()
		for i := 0; i < j.Runs; i++ {
			cfg := cfgFor(j.Seed + int64(i))
			sim.Run(cfg, prog)
			fresh := p.timed("sim.Run", job, 1, func() { sim.Run(cfg, prog) })
			p.timed("sim.RunPool.Run", job, 1, func() { pool.Run(cfg, prog) })
			var rep *detect.Report
			d := p.timed("detect.RunAll", job, 1, func() { rep = detect.RunAll(cfg, prog, all...) })
			p.selfDiffs[""] = append(p.selfDiffs[""], float64(d-fresh)/1e3)
			for _, st := range rep.Stats {
				p.events[st.Detector] += float64(st.Events)
			}
			total++
			for _, det := range all {
				d := p.timed("detect.RunAll/"+det.Name, job, 1, func() { detect.RunAll(cfg, prog, det) })
				p.selfDiffs[det.Name] = append(p.selfDiffs[det.Name], float64(d-fresh)/1e3)
			}
		}
	}
	for d := range p.events {
		p.events[d] /= total
	}
}

// sweeps times detect.Sweep without and with a checkpoint, the four shard
// sweeps' merge, a checkpoint-sized SaveCheckpoint, and cold Engine.Submit
// paired with detect.Sweep of the same job — all serial, on one warm pool.
func (p *probes) sweeps(jobs []engine.Job) error {
	dir := filepath.Join(p.b.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pool := sim.NewRunPool()
	defer pool.Close()
	eng := engine.New(engine.Options{Workers: 1, SweepWorkers: 1})
	defer eng.Close()
	all := dets(detectors...)
	var ckBytes, ckRuns float64
	for _, j := range jobs {
		prog, cfgFor := program(j)
		job := p.tr.id()
		runs := int64(j.Runs)
		opts := detect.SweepOptions{Runs: j.Runs, BaseSeed: j.Seed, Config: cfgFor(j.Seed), Workers: 1, Pool: pool}
		p.timed("detect.Sweep", job, runs, func() { detect.Sweep(prog, opts, all...) })

		// The engine's own cost is small next to a long sweep's noise, so
		// it is timed on daemon-sized jobs, in pairs whose order alternates
		// so neither side always runs on the other's warm caches.
		small, smallOpts := j, opts
		small.Runs, smallOpts.Runs = p.b.sz.daemonRuns, p.b.sz.daemonRuns
		n := int64(small.Runs)
		for i := 0; i < coldPairs; i++ {
			var sweep, submit time.Duration
			var res *engine.Result
			var err error
			sw := func() { sweep = p.timed("detect.Sweep/pair", job, n, func() { detect.Sweep(prog, smallOpts, all...) }) }
			su := func() {
				submit = p.timed("engine.Submit/cold-probe", job, n, func() { res, err = eng.Submit(p.ctx, small) })
			}
			if i%2 == 0 {
				sw()
				su()
			} else {
				su()
				sw()
			}
			p.lg.record("probe", small, res, textOf(res, err), err, "")
			p.coldDiffs = append(p.coldDiffs, float64(submit-sweep)/1e3)
		}

		ck := filepath.Join(dir, "sweep.ck")
		os.Remove(ck)
		withCk := opts
		withCk.Checkpoint = ck
		p.timed("detect.Sweep+checkpoint", job, runs, func() { detect.Sweep(prog, withCk, all...) })
		if fi, err := os.Stat(ck); err == nil {
			ckBytes += float64(fi.Size())
			ckRuns += float64(j.Runs)
		}

		base := filepath.Join(dir, "shard.ck")
		srcs := make([]string, fleetShards)
		for i := range srcs {
			srcs[i] = engine.ShardCheckpointName(base, i, fleetShards)
			sh := withCk
			sh.Checkpoint, sh.ShardCount, sh.ShardIndex = srcs[i], fleetShards, i
			detect.Sweep(prog, sh, all...)
		}
		var err error
		p.timed("detect.MergeSweepCheckpoints", job, runs, func() {
			_, err = detect.MergeSweepCheckpoints(base, srcs, opts, all...)
		})
		if err != nil {
			return fmt.Errorf("merge probe %s: %w", jobKey(j), err)
		}

		var payload json.RawMessage
		if err := harness.LoadCheckpoint(base, &payload); err != nil {
			return fmt.Errorf("save probe %s: %w", jobKey(j), err)
		}
		p.timed("harness.SaveCheckpoint", job, runs, func() { err = harness.SaveCheckpoint(filepath.Join(dir, "save.ck"), payload) })
		if err != nil {
			return fmt.Errorf("save probe %s: %w", jobKey(j), err)
		}
	}
	if ckRuns > 0 {
		p.ckBytes = ckBytes / ckRuns
	}
	return nil
}

// services times the warm answer path three ways: the store alone (through
// the same timedStore the daemon workload uses), the engine in process,
// and a client over the daemon socket; plus the daemon's health probe.
func (p *probes) services(jobs []engine.Job) error {
	path := filepath.Join(p.b.dir, "probe.db")
	os.Remove(path)
	defer os.Remove(path)
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	ts := &timedStore{st: st, reqs: map[string]int64{}}
	ts.trace(p.tr)
	d, err := startDaemon(filepath.Join(p.b.dir, "probe.sock"), engine.Options{Workers: 1, SweepWorkers: 1, Store: ts})
	if err != nil {
		return err
	}
	defer d.close()
	cl := engine.NewClient(d.addr)
	defer cl.Close()
	const reps = 50
	for _, j := range jobs {
		j.Runs = p.b.sz.daemonRuns
		job := p.tr.id()
		ts.register(j, job)
		res, err := d.eng.Submit(p.ctx, j) // cold: executes and puts
		p.lg.record("probe", j, res, textOf(res, err), err, "")
		for i := 0; i < reps; i++ {
			p.timed("engine.Submit/warm-probe", job, 0, func() { res, err = d.eng.Submit(p.ctx, j) })
			p.lg.record("probe", j, res, textOf(res, err), err, "")
			p.timed("ipc.Submit/warm-probe", job, 0, func() { res, err = cl.Submit(p.ctx, j) })
			p.lg.record("probe", j, res, textOf(res, err), err, "")
			p.timed("ipc.Health", job, 0, func() { _, err = cl.Health(p.ctx) })
			if err != nil {
				return fmt.Errorf("health probe: %w", err)
			}
		}
	}
	return nil
}

// fleet runs each heavy job through a two-daemon fleet with timed shards.
func (p *probes) fleet(jobs []engine.Job) error {
	rig, err := newFleetRig(p.b.dir)
	if err != nil {
		return err
	}
	defer rig.close()
	for _, j := range jobs {
		job := p.tr.id()
		t0 := time.Now()
		rep, err := rig.sweep(p.ctx, j, p.tr, job, job)
		p.tr.addWork("fleet.Run", job, job, 0, t0, time.Now(), int64(j.Runs), 0)
		if err == nil {
			p.tally.add(rep)
		}
		recordFleet(p.lg, j, rep, err)
	}
	return nil
}

func textOf(res *engine.Result, err error) string {
	if err != nil {
		return ""
	}
	return res.Text
}
