// Package detect is the composable detector pipeline: a named registry of
// the study's detectors and a driver that attaches ANY subset of them to a
// single instrumented simulation pass.
//
// Before the unified event stream, each detector dragged its own run along:
// regenerating the detector-comparison extension meant simulating every
// kernel once per detector. Now every detector is an event.Sink (or a
// Result-only analysis), so one sim.Run dispatches each event once through
// the event.Mux and every attached detector sees it. RunAll is that single
// pass; Sweep folds RunAll over many seeds (the paper's Table 12 protocol,
// "We ran each buggy program 100 times with the race detector turned on").
//
// The pipeline also does the accounting the comparison experiment wants:
// per detector, how many events it consumed and how much wall time its
// Event calls (plus Finish) took — the measured version of the overhead
// argument in Section 5.3's detector discussion.
package detect

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"goconcbugs/internal/event"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/sim"
)

// Verdict is one detector's judgement of one run.
type Verdict struct {
	// Detector is the registry name that produced this verdict.
	Detector string
	// Detected reports whether the detector fired.
	Detected bool
	// Message is one representative finding (empty when !Detected).
	Message string
	// Findings lists every finding, rendered.
	Findings []string
	// Rules lists the detector-specific rule identifiers behind the
	// findings, when the detector has a rule taxonomy (vet does).
	Rules []string
}

// Instance is one attached detector. Kinds and Event follow event.Sink; a
// Result-only detector (built-in deadlock, leak, cycle analysis) returns
// nil from Kinds and is never dispatched to — all its work happens in
// Finish.
//
// An instance judges one run at a time. RunAll builds fresh instances on
// every call. A Sweep worker calls Detector.New once and reuses the
// instance for every seed it runs, provided the instance also has a
// Reset() method: Reset runs before each reuse and must return it to its
// just-constructed state (vector clocks from different runs are
// incomparable). An instance without Reset is rebuilt with New for every
// run. After a run panics, the worker drops all its instances and builds
// new ones, so a half-updated instance never judges the next seed.
type Instance interface {
	Kinds() []event.Kind
	Event(*event.Event)
	Finish(res *sim.Result) Verdict
}

// resetter is the optional Instance method that makes it reusable across a
// sweep worker's runs.
type resetter interface{ Reset() }

// Detector is a registry entry: a name, a one-line description, and a
// constructor for instances (see Instance for their lifecycle).
type Detector struct {
	Name string
	Desc string
	New  func() Instance
}

var (
	regMu    sync.Mutex
	registry []Detector
)

// Register adds a detector to the registry. Names must be unique; the
// built-in set registers itself in this package's init.
func Register(d Detector) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, e := range registry {
		if e.Name == d.Name {
			panic(fmt.Sprintf("detect: duplicate detector %q", d.Name))
		}
	}
	registry = append(registry, d)
}

// All returns the registry in registration order.
func All() []Detector {
	regMu.Lock()
	defer regMu.Unlock()
	return append([]Detector(nil), registry...)
}

// Names returns the registered detector names in registration order.
func Names() []string {
	var out []string
	for _, d := range All() {
		out = append(out, d.Name)
	}
	return out
}

// Lookup finds a detector by name.
func Lookup(name string) (Detector, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Detector{}, false
}

// MustLookup is Lookup for names known at compile time.
func MustLookup(name string) Detector {
	d, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("detect: unknown detector %q", name))
	}
	return d
}

// Parse resolves a comma-separated detector list ("race,vet,leak").
func Parse(list string) ([]Detector, error) {
	var out []Detector
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		d, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown detector %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty detector list (have %s)", strings.Join(Names(), ", "))
	}
	return out, nil
}

// Stat accounts one detector's share of a pass.
type Stat struct {
	Detector string
	// Events is the number of events dispatched to the detector (0 for
	// Result-only detectors).
	Events int64
	// Elapsed is the wall time spent inside the detector's Event and
	// Finish calls.
	Elapsed time.Duration
}

// counted is the sink actually registered with the mux: it forwards to the
// instance while counting events and accumulating wall time.
type counted struct {
	inst Instance
	stat Stat
}

func (c *counted) Kinds() []event.Kind { return c.inst.Kinds() }

func (c *counted) Event(ev *event.Event) {
	start := time.Now()
	c.inst.Event(ev)
	c.stat.Elapsed += time.Since(start)
	c.stat.Events++
}

// Report is the outcome of one single-pass instrumented run.
type Report struct {
	Result   *sim.Result
	Verdicts []Verdict
	Stats    []Stat
	// Elapsed is the wall time of the whole run, detectors included.
	Elapsed time.Duration
}

// Verdict returns the named detector's verdict (zero Verdict if absent).
func (r *Report) Verdict(name string) Verdict {
	for _, v := range r.Verdicts {
		if v.Detector == name {
			return v
		}
	}
	return Verdict{}
}

// Detected reports whether any attached detector fired.
func (r *Report) Detected() bool {
	for _, v := range r.Verdicts {
		if v.Detected {
			return true
		}
	}
	return false
}

// RunAll runs prog once with every listed detector attached to the same
// event stream — each event is produced once and fanned out by the mux —
// then collects the verdicts. Sinks already present in cfg are kept. Every
// call builds fresh detector instances and returns a Report it alone owns.
func RunAll(cfg sim.Config, prog sim.Program, dets ...Detector) *Report {
	return newPipeline(dets).run(nil, cfg, prog)
}

// pipeline is one attached detector set: an instance per detector behind
// its counting wrapper, plus the buffers a run's Report is built in. RunAll
// uses a pipeline once; a Sweep worker keeps one for every seed it runs, so
// its pooled runtime sees the same sinks each run and keeps its event mux.
type pipeline struct {
	dets  []Detector
	insts []*counted
	// sinks is the last run's Config.Sinks: the caller's sinks, then the
	// wrappers. stats and rep back the Report run returns.
	sinks []event.Sink
	stats []Stat
	rep   Report
	used  bool
}

func newPipeline(dets []Detector) *pipeline {
	p := &pipeline{dets: dets, insts: make([]*counted, len(dets)), stats: make([]Stat, len(dets))}
	for i, d := range dets {
		p.insts[i] = &counted{inst: d.New(), stat: Stat{Detector: d.Name}}
	}
	return p
}

// reset readies the instances for another run: Reset where they have it, a
// fresh instance behind a fresh wrapper where they do not (the new wrapper
// makes the runtime rebuild its mux, whose table holds the old one).
func (p *pipeline) reset() {
	for i, c := range p.insts {
		if r, ok := c.inst.(resetter); ok {
			r.Reset()
			c.stat = Stat{Detector: p.dets[i].Name}
		} else {
			p.insts[i] = &counted{inst: p.dets[i].New(), stat: Stat{Detector: p.dets[i].Name}}
		}
	}
}

// run executes prog once, on pool when non-nil. The Report, its Result and
// its Stats are the pipeline's and the pool's: valid until either runs
// again. Verdicts is a fresh slice each run.
func (p *pipeline) run(pool *sim.RunPool, cfg sim.Config, prog sim.Program) *Report {
	if p.used {
		p.reset()
	}
	p.used = true
	cfg.Sinks = p.attach(cfg.Sinks)
	start := time.Now()
	var res *sim.Result
	if pool != nil {
		res = pool.Run(cfg, prog)
	} else {
		res = sim.Run(cfg, prog)
	}
	return p.finish(res, start)
}

// attach returns sinks followed by the pipeline's wrappers, built in the
// pipeline's own buffer (never in the caller's backing array).
func (p *pipeline) attach(sinks []event.Sink) []event.Sink {
	p.sinks = append(p.sinks[:0], sinks...)
	for _, c := range p.insts {
		p.sinks = append(p.sinks, c)
	}
	return p.sinks
}

// finish collects every instance's verdict on res, timing each Finish into
// its detector's Stat.
func (p *pipeline) finish(res *sim.Result, start time.Time) *Report {
	p.rep = Report{Result: res, Verdicts: make([]Verdict, len(p.insts)), Stats: p.stats}
	for i, c := range p.insts {
		fs := time.Now()
		p.rep.Verdicts[i] = c.inst.Finish(res)
		c.stat.Elapsed += time.Since(fs)
		p.stats[i] = c.stat
	}
	p.rep.Elapsed = time.Since(start)
	return &p.rep
}

// SweepOptions configures a multi-seed sweep.
type SweepOptions struct {
	// Runs is the number of seeds (default 100, the Table 12 protocol).
	Runs int
	// BaseSeed is the first seed; run i uses BaseSeed+i.
	BaseSeed int64
	// Config is the per-run configuration (Seed is overwritten per run;
	// Sinks present in it are kept on every run).
	Config sim.Config
	// Workers fans runs out over that many host goroutines (0 or negative
	// = GOMAXPROCS, 1 = serial). Results fold in seed order either way.
	Workers int
	// Context, when non-nil, bounds the sweep's wall-clock: once it is
	// canceled (or its deadline expires) no new runs start, in-flight runs
	// finish, and the report folds what completed — never-run seeds appear
	// in Incomplete and the Verdict says why. Nil means run to the end.
	Context context.Context
	// InjectorFor, when non-nil, builds a fresh fault injector for each
	// run (injectors are stateful and single-run). It must be a pure
	// function of (run, seed), so the sweep stays a deterministic function
	// of its options for any Workers value.
	InjectorFor func(run int, seed int64) sim.Injector
	// Checkpoint, when non-empty, is a file the sweep periodically writes
	// its per-run records to (atomically) and reads back on start: records
	// already present are not re-executed, so an interrupted sweep resumed
	// with the same options folds to the same report as an uninterrupted
	// one. A checkpoint written under different options, or unreadable, is
	// ignored, and SweepReport.Warnings says so.
	Checkpoint string
	// CheckpointEvery saves after that many newly completed runs (default
	// Runs/50, floored at 10 — each save re-marshals every record, so a
	// fixed small interval would make checkpointing quadratic on large
	// sweeps); the final state is always saved.
	CheckpointEvery int
	// RecordDir, when non-empty, archives every completed run as a
	// trace/v1 file under it (run-NNNNN.trace, one frame per file, written
	// atomically) for offline re-judging by ReplayDir. Frames are
	// position-independent, so sharded sweeps recording into the same
	// directory assemble the exact archive a serial sweep writes.
	// Recording is best-effort with the same contract as Checkpoint: a
	// write failure costs the archive entry, never the sweep.
	RecordDir string
	// Pool, when non-nil, is an external sim.RunPool the serial sweep path
	// (Workers == 1) recycles runs through instead of creating its own —
	// a job-engine worker executing many sweeps back to back keeps one
	// warm runtime across all of them. The pool is single-owner; Sweep
	// closes it only after a seed panicked, which leaves it usable (its
	// next Run starts a fresh runtime). It is ignored when the sweep runs
	// parallel workers (each worker owns a private pool either way).
	Pool *sim.RunPool
	// ShardCount and ShardIndex restrict the sweep to one contiguous block
	// of the seed range: with ShardCount > 1, only runs in shard ShardIndex
	// (per harness.Shard) execute, and the report folds that block alone.
	// Each shard writes a full-length checkpoint with nulls outside its
	// block; MergeSweepCheckpoints folds the shard files back into the
	// byte-identical checkpoint — and hence the identical report — a serial
	// sweep would have produced. ShardCount <= 1 means unsharded.
	ShardCount int
	ShardIndex int
}

// SweepStat aggregates one detector over a sweep.
type SweepStat struct {
	Detector     string
	DetectedRuns int
	// FirstRun is the index of the first detecting run, -1 if none.
	FirstRun int
	// Sample is one representative finding from the first detecting run.
	Sample string
	// Rules is the union of rule identifiers across runs, sorted.
	Rules []string
	// Events is the total events dispatched to the detector across all
	// completed runs. Elapsed is the wall time spent inside the detector
	// in THIS process — a resumed sweep excludes time spent before the
	// checkpoint (wall time is not reproducible, so it is never part of
	// the deterministic fold).
	Events  int64
	Elapsed time.Duration
}

// Detected reports whether any run fired — the paper's "We consider a bug
// detected within runs as a detected bug".
func (s SweepStat) Detected() bool { return s.DetectedRuns > 0 }

// IncompleteRun is one seed the sweep could not finish: it panicked on the
// host side or was never dispatched before cancellation.
type IncompleteRun struct {
	Run    int    `json:"run"`
	Seed   int64  `json:"seed"`
	Reason string `json:"reason"` // harness.ReasonPanic / Canceled / Deadline
	Detail string `json:"detail,omitempty"`
}

// SweepReport is the seed-order fold of a sweep.
type SweepReport struct {
	Runs      int
	Detectors []SweepStat
	// Completed counts runs that executed to the end; panicked and
	// never-dispatched seeds are listed in Incomplete instead of being
	// silently dropped.
	Completed  int
	Incomplete []IncompleteRun
	// Verdict is the structured outcome: Confirmed when any completed run
	// fired a detector, Refuted when every scheduled run completed clean,
	// Incomplete (with a reason) otherwise.
	Verdict harness.Verdict
	// Warnings names what went wrong beside the fold without changing it:
	// checkpoint saves that failed, and a checkpoint that was unreadable
	// or written under different options and so was ignored. It is
	// process-local, like Elapsed, and never serialized.
	Warnings []string `json:"-"`
}

// Stat returns the named detector's aggregate (zero SweepStat if absent).
func (r *SweepReport) Stat(name string) SweepStat {
	for _, s := range r.Detectors {
		if s.Detector == name {
			return s
		}
	}
	return SweepStat{Detector: name, FirstRun: -1}
}

// sweepRecord is one run's deterministic outcome — the unit of
// checkpointing. Wall time is deliberately absent: it is not reproducible,
// so keeping it out makes the fold of a resumed sweep bit-identical to an
// uninterrupted one.
type sweepRecord struct {
	Run      int               `json:"run"`
	Seed     int64             `json:"seed"`
	Err      *harness.RunError `json:"err,omitempty"`
	Verdicts []Verdict         `json:"verdicts,omitempty"`
	// Events is the per-detector dispatch count, indexed like dets.
	Events []int64 `json:"events,omitempty"`
}

// sweepCheckpoint is the on-disk format: Records is indexed by run with
// nulls for seeds not yet executed, and Fingerprint guards against resuming
// under different options (a mismatch starts fresh, with a warning).
type sweepCheckpoint struct {
	Fingerprint string         `json:"fingerprint"`
	Records     []*sweepRecord `json:"records"`
}

func sweepFingerprint(opts SweepOptions, dets []Detector) string {
	names := make([]string, len(dets))
	for i, d := range dets {
		names[i] = d.Name
	}
	inj := ""
	if opts.InjectorFor != nil {
		inj = " inject"
	}
	return fmt.Sprintf("sweep/v1 runs=%d base=%d prog=%s dets=%s%s",
		opts.Runs, opts.BaseSeed, opts.Config.Name, strings.Join(names, ","), inj)
}

// Sweep runs prog under opts.Runs seeds, every listed detector attached to
// each run's single event stream, and folds the verdicts in seed order (so
// the report is identical for any Workers value).
//
// The sweep is hardened: a run that panics on the host side (a buggy
// detector or kernel) is isolated, recorded in Incomplete, and the pool
// keeps draining; cancellation via Context stops dispatching and folds the
// partial result; Checkpoint persists per-run records so an interrupted
// sweep resumes where it stopped.
func Sweep(prog sim.Program, opts SweepOptions, dets ...Detector) *SweepReport {
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = opts.Runs / 50
		if opts.CheckpointEvery < 10 {
			opts.CheckpointEvery = 10
		}
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.RecordDir != "" {
		// Best-effort, like checkpoint saves: per-run recording quietly
		// no-ops if the directory cannot exist.
		_ = os.MkdirAll(opts.RecordDir, 0o755)
	}

	lo, hi := 0, opts.Runs
	if opts.ShardCount > 1 {
		lo, hi = harness.Shard(opts.Runs, opts.ShardCount, opts.ShardIndex)
	}

	records := make([]*sweepRecord, opts.Runs)
	fp := sweepFingerprint(opts, dets)
	var warnings []string
	if opts.Checkpoint != "" {
		var cp sweepCheckpoint
		err := harness.LoadCheckpoint(opts.Checkpoint, &cp)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			warnings = append(warnings, fmt.Sprintf("ignoring checkpoint %s, starting over: %v", opts.Checkpoint, err))
		case cp.Fingerprint != fp:
			warnings = append(warnings, fmt.Sprintf("ignoring checkpoint %s, starting over: written under different options (have %q, want %q)", opts.Checkpoint, cp.Fingerprint, fp))
		case len(cp.Records) != opts.Runs:
			warnings = append(warnings, fmt.Sprintf("ignoring checkpoint %s, starting over: it holds %d records, want %d", opts.Checkpoint, len(cp.Records), opts.Runs))
		default:
			copy(records, cp.Records)
		}
	}
	// The runs still to execute are those of [lo, hi) no checkpoint record
	// covers, dispatched in order straight off records: a large sweep
	// starts its first run at once instead of listing every seed first.
	// Reading records[i] before dispatching i is race-free: workers only
	// store records of runs already dispatched.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hi-lo {
		workers = hi - lo
	}

	// mu guards records, the live-elapsed accumulator, and checkpoint
	// writes; records entries are immutable once stored.
	var mu sync.Mutex
	elapsed := make([]time.Duration, len(dets))
	newDone := 0
	saves, saveFails := 0, 0
	var saveErr error
	saveLocked := func() {
		snap := sweepCheckpoint{Fingerprint: fp, Records: records}
		// A failed save costs resumability, not correctness: the sweep
		// proceeds and the report warns.
		saves++
		if err := harness.SaveCheckpoint(opts.Checkpoint, &snap); err != nil {
			if saveFails == 0 {
				saveErr = err
			}
			saveFails++
		}
	}
	// Each worker owns a RunPool so back-to-back seeds recycle one runtime,
	// and a detector pipeline so they recycle one set of instances.
	type worker struct {
		pool *sim.RunPool
		pipe *pipeline
	}
	oneRun := func(w *worker, i int) {
		cfg := opts.Config
		cfg.Seed = opts.BaseSeed + int64(i)
		if opts.InjectorFor != nil {
			cfg.Injector = opts.InjectorFor(i, cfg.Seed)
		}
		var rc *recording
		if opts.RecordDir != "" {
			rc = beginRecording(opts, i, &cfg)
		}
		if w.pipe == nil {
			w.pipe = newPipeline(dets)
		}
		// rep, its Result and its Stats are only valid until this worker's
		// next run, which is after every read below.
		var rep *Report
		runErr := harness.Capture(i, cfg.Seed, func() { rep = w.pipe.run(w.pool, cfg, prog) })
		if runErr != nil {
			// The panic may have left any detector instance half-updated,
			// and a host panic unwinding through the program's deferred
			// simulated calls can leave the pooled runtime's workers out of
			// step with it: drop both, and start the next seed fresh.
			w.pipe = nil
			w.pool.Close()
		}
		if rc != nil {
			rc.finish(rep)
		}
		rec := &sweepRecord{Run: i, Seed: cfg.Seed, Err: runErr}
		if runErr == nil {
			rec.Verdicts = rep.Verdicts
			rec.Events = make([]int64, len(dets))
			for di := range dets {
				rec.Events[di] = rep.Stats[di].Events
			}
		}
		mu.Lock()
		records[i] = rec
		if rep != nil {
			for di := range dets {
				elapsed[di] += rep.Stats[di].Elapsed
			}
		}
		newDone++
		if opts.Checkpoint != "" && newDone%opts.CheckpointEvery == 0 {
			saveLocked()
		}
		mu.Unlock()
	}
	if workers <= 1 {
		w := &worker{pool: opts.Pool}
		if w.pool == nil {
			w.pool = sim.NewRunPool()
			defer w.pool.Close()
		}
		for i := lo; i < hi; i++ {
			if records[i] != nil {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			oneRun(w, i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := &worker{pool: sim.NewRunPool()}
				defer w.pool.Close()
				for i := range next {
					oneRun(w, i)
				}
			}()
		}
		for i := lo; i < hi; i++ {
			if records[i] != nil {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			next <- i
		}
		close(next)
		wg.Wait()
	}
	if opts.Checkpoint != "" {
		mu.Lock()
		saveLocked()
		mu.Unlock()
		if saveFails > 0 {
			warnings = append(warnings, fmt.Sprintf("%d of %d checkpoint saves to %s failed; the sweep cannot resume from them: %v",
				saveFails, saves, opts.Checkpoint, saveErr))
		}
	}

	out := foldSweep(opts, dets, records, lo, hi, elapsed, ctx.Err())
	out.Warnings = warnings
	return out
}

// foldSweep builds the seed-order report from per-run records over the
// half-open run range [lo, hi). It is shared by Sweep (serial, resumed, and
// single-shard) and MergeSweepCheckpoints (full range over merged shards), so
// every path to a report folds identically. elapsed may be nil: wall time is
// process-local and never part of the deterministic fold.
func foldSweep(opts SweepOptions, dets []Detector, records []*sweepRecord, lo, hi int, elapsed []time.Duration, ctxErr error) *SweepReport {
	out := &SweepReport{Runs: hi - lo}
	rules := make([]map[string]bool, len(dets))
	for di, d := range dets {
		out.Detectors = append(out.Detectors, SweepStat{Detector: d.Name, FirstRun: -1})
		rules[di] = map[string]bool{}
	}
	for i := lo; i < hi; i++ {
		rec := records[i]
		if rec == nil {
			reason := harness.ReasonCanceled
			if ctxErr != nil {
				reason = harness.CtxReason(ctxErr)
			}
			out.Incomplete = append(out.Incomplete, IncompleteRun{
				Run: i, Seed: opts.BaseSeed + int64(i), Reason: reason,
			})
			continue
		}
		if rec.Err != nil {
			out.Incomplete = append(out.Incomplete, IncompleteRun{
				Run: i, Seed: rec.Seed, Reason: harness.ReasonPanic, Detail: rec.Err.PanicValue,
			})
			continue
		}
		out.Completed++
		for di := range dets {
			st := &out.Detectors[di]
			v := rec.Verdicts[di]
			st.Events += rec.Events[di]
			if v.Detected {
				st.DetectedRuns++
				if st.FirstRun < 0 {
					st.FirstRun = i
					st.Sample = v.Message
				}
			}
			for _, r := range v.Rules {
				rules[di][r] = true
			}
		}
	}
	for di := range dets {
		if elapsed != nil {
			out.Detectors[di].Elapsed = elapsed[di]
		}
		for r := range rules[di] {
			out.Detectors[di].Rules = append(out.Detectors[di].Rules, r)
		}
		sort.Strings(out.Detectors[di].Rules)
	}

	detected := false
	for di := range out.Detectors {
		if out.Detectors[di].DetectedRuns > 0 {
			detected = true
			break
		}
	}
	switch {
	case detected:
		out.Verdict = harness.Verdict{Status: harness.Confirmed}
	case len(out.Incomplete) == 0:
		out.Verdict = harness.Verdict{Status: harness.Refuted}
	default:
		reason := out.Incomplete[0].Reason
		for _, inc := range out.Incomplete {
			// A cut-short sweep dominates isolated panics as the
			// headline reason.
			if inc.Reason != harness.ReasonPanic {
				reason = inc.Reason
				break
			}
		}
		out.Verdict = harness.Incompletef(reason, "%d of %d runs incomplete", len(out.Incomplete), out.Runs)
	}
	return out
}

// Structured merge failures. MergeSweepCheckpoints wraps each with the
// offending path and details; callers classify with errors.Is — a fleet
// scheduler treats ErrShardUnreadable as "re-fetch that shard" but
// ErrShardOverlap/ErrShardFingerprint as partitioning bugs that no retry
// fixes.
var (
	// ErrShardUnreadable: a shard checkpoint file is missing or corrupt.
	ErrShardUnreadable = errors.New("shard checkpoint unreadable")
	// ErrShardFingerprint: a shard checkpoint was written under different
	// sweep options (program, seed range, detector set, injection).
	ErrShardFingerprint = errors.New("shard checkpoint fingerprint mismatch")
	// ErrShardLength: a shard checkpoint's record slice is not the sweep's
	// full length — it was written by a different format or a torn tool.
	ErrShardLength = errors.New("shard checkpoint length mismatch")
	// ErrShardOverlap: the same run appears in more than one shard
	// checkpoint — overlapping shard ranges or a duplicated shard file.
	ErrShardOverlap = errors.New("shard checkpoints overlap")
)

// MergeSweepCheckpoints folds the checkpoint files written by sharded Sweeps
// of the same program and options back into the one report a serial sweep
// would produce. Every source must carry the fingerprint of opts/dets and a
// full-length record slice; records present in more than one source mean the
// shards overlapped (a partitioning bug) and are rejected, as is the same
// source path listed twice. Seeds no shard executed fold into Incomplete,
// exactly as a canceled serial sweep's would. Failures wrap the ErrShard*
// sentinels, never fold silently.
//
// When dst is non-empty the merged full-length checkpoint is saved there
// first; because sweepRecords hold no wall time and the fingerprint carries
// no shard identity, that file is byte-identical to the checkpoint an
// uninterrupted serial sweep of the same options writes.
func MergeSweepCheckpoints(dst string, srcs []string, opts SweepOptions, dets ...Detector) (*SweepReport, error) {
	if opts.Runs <= 0 {
		opts.Runs = 100
	}
	fp := sweepFingerprint(opts, dets)
	records := make([]*sweepRecord, opts.Runs)
	seen := make(map[string]bool, len(srcs))
	for _, src := range srcs {
		if seen[src] {
			return nil, fmt.Errorf("detect: shard checkpoint %s listed twice: %w", src, ErrShardOverlap)
		}
		seen[src] = true
		var cp sweepCheckpoint
		if err := harness.LoadCheckpoint(src, &cp); err != nil {
			return nil, fmt.Errorf("detect: reading shard checkpoint %s: %w (%w)", src, err, ErrShardUnreadable)
		}
		if cp.Fingerprint != fp {
			return nil, fmt.Errorf("detect: shard checkpoint %s was written under different options:\n  have %q\n  want %q\n  %w", src, cp.Fingerprint, fp, ErrShardFingerprint)
		}
		if len(cp.Records) != opts.Runs {
			return nil, fmt.Errorf("detect: shard checkpoint %s holds %d records, want %d: %w", src, len(cp.Records), opts.Runs, ErrShardLength)
		}
		for i, rec := range cp.Records {
			if rec == nil {
				continue
			}
			if records[i] != nil {
				return nil, fmt.Errorf("detect: run %d appears in more than one shard checkpoint (%s) — shards must partition the seed range: %w", i, src, ErrShardOverlap)
			}
			records[i] = rec
		}
	}
	if dst != "" {
		if err := harness.SaveCheckpoint(dst, &sweepCheckpoint{Fingerprint: fp, Records: records}); err != nil {
			return nil, err
		}
	}
	return foldSweep(opts, dets, records, 0, opts.Runs, nil, nil), nil
}
