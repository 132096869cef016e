// Command perfbench is the repository benchmark. It runs one named workload
// through the public entry points of internal/engine, fleet, detect, store
// and sim, checks every output against the plain in-process sweep of the
// same job, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics and a cost map). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload sweep|daemon -seed N -seconds S -trace 0|1
//
// See README.md for what each workload loads and why.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"goconcbugs/internal/engine"
)

// instance is a workload that has been set up and is ready to time.
type instance interface {
	// run drives the workload for d and returns what it measured; every
	// operation's output goes to lg. A non-nil tr records spans.
	run(ctx context.Context, d time.Duration, tr *tracer, lg *ledger) *phase
	// verify compares the recorded outputs with the reference sweeps.
	verify(ctx context.Context, lg *ledger, ref *reference)
	// stats sums the engine counters of every engine the workload drives.
	stats() engine.Stats
	close()
}

var workloads = map[string]func(*bench) (instance, error){
	"sweep":  setupSweep,
	"daemon": setupDaemon,
}

// heapRefOps is the operation count heap_mb is projected to: about what a
// full-length run of the workload completes. Daemons keep every ticket, so
// the live heap grows with the operations served; projecting to a fixed
// count keeps a faster commit from reading as a heap regression.
var heapRefOps = map[string]float64{"sweep": 2000, "daemon": 50000}

// sizes is how much work one operation and one set-up do.
type sizes struct {
	sweepRuns    int // seeds per sweep job
	daemonRuns   int // seeds per daemon request
	warmupRuns   int // seeds per job in set-up warm-ups
	jobs         int // job-mix cap; 0 = every kernel × variant
	warmKeys     int // daemon warm set
	probeRuns    int // seeds per job in the single-run probes
	probeJobs    int // jobs in the sweep, service and fleet probes
	probeJobRuns int // seeds per job in the sweep and fleet probes
	setups       int // set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	sweepRuns: 1000, daemonRuns: 100, warmupRuns: 50,
	warmKeys: 48, probeRuns: 10, probeJobs: 6, probeJobRuns: 1000, setups: 5,
}

type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory for sockets, checkpoints, store
	sz       sizes
	out      io.Writer // human-readable report
}

// phase is what one timed stretch of a workload measured.
type phase struct {
	wall    time.Duration
	runs    int64   // seeded runs whose verdicts the workload delivered
	ops     *timing // latency of one workload operation
	timings []*timing
	rates   []metric
	counts  []metric
	passes  []float64 // runs/s of each complete pass over the job mix
}

type pass struct {
	start time.Time
	runs  int64
}

// beginPass starts timing one pass over the job mix; endPass(nil) drops a
// pass the deadline cut short.
func (p *phase) beginPass() *pass { return &pass{time.Now(), p.runs} }

func (p *phase) endPass(ps *pass) {
	if ps != nil {
		p.passes = append(p.passes, float64(p.runs-ps.runs)/time.Since(ps.start).Seconds())
	}
}

// passRate is the median throughput of the complete passes. Every pass
// does identical work, so the median shrugs off a stretch of host noise
// that a whole-window average would absorb. Without a complete pass it is
// the whole window's throughput.
func (p *phase) passRate() float64 {
	if len(p.passes) == 0 {
		return float64(p.runs) / p.wall.Seconds()
	}
	return quantile(p.passes, 0.5)
}

type metric struct {
	name, unit string
	value      float64
}

func newPhase(op string, tail float64) *phase {
	return &phase{ops: &timing{name: op, tail: tail}}
}

func (p *phase) timing(name string, tail float64) *timing {
	t := &timing{name: name, tail: tail}
	p.timings = append(p.timings, t)
	return t
}

func (p *phase) rate(name, unit string, v float64) {
	p.rates = append(p.rates, metric{name, unit, v})
}

func (p *phase) count(name string, v float64) {
	p.counts = append(p.counts, metric{name, "count", v})
}

func (p *phase) rateOf(name string) float64 {
	for _, r := range p.rates {
		if r.name == name {
			return r.value
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// result is the JSON object printed last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metricJSON{v, unit}
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// run sets the workload up b.sz.setups times (keeping the last), times it,
// checks its outputs and returns the result object.
func (b *bench) run(ctx context.Context) (*result, error) {
	setup, ok := workloads[b.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", b.workload)
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	var inst instance
	var setupS []float64
	for i := 0; i < max(1, b.sz.setups); i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	lg := newLedger()
	res := &result{Metrics: map[string]metricJSON{}}
	fmt.Fprintf(b.out, "perfbench %s seed=%d seconds=%.0f trace=%v GOMAXPROCS=%d\n",
		b.workload, b.seed, b.seconds.Seconds(), b.trace, runtime.GOMAXPROCS(0))
	if !b.trace {
		before := liveHeapMB()
		p := inst.run(ctx, b.seconds, nil, lg)
		after := liveHeapMB()
		heap := after
		if n := len(p.ops.ms); n > 0 {
			heap = before + (after-before)*heapRefOps[b.workload]/float64(n)
		}
		check(ctx, inst, lg)
		b.report(p, setupS, lg)
		fmt.Fprintf(b.out, "heap: live %.2f MB before the timed phase, %.2f MB after %d ops; heap_mb %.2f MB projected to %.0f ops\n\n",
			before, after, len(p.ops.ms), heap, heapRefOps[b.workload])
		res.set("setup_s", "s", quantile(setupS, 0.5))
		res.set("runs_per_s", "runs/s", p.rateOf("runs_per_s"))
		res.set("op_p50_ms", "ms", p.ops.p50())
		res.set("heap_mb", "MB", heap)
	} else {
		plain := inst.run(ctx, b.seconds/2, nil, lg)
		tr := newTracer()
		before := inst.stats()
		traced := inst.run(ctx, b.seconds/2, tr, lg)
		after := inst.stats()
		wlSpans := tr.snapshot()
		pr, err := runProbes(ctx, b, tr, lg)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		check(ctx, inst, lg)
		all := tr.snapshot()
		path := filepath.Join(b.dir, "..", fmt.Sprintf("trace-%s-%d.json", b.workload, b.seed))
		if err := saveChrome(path, all); err != nil {
			return nil, err
		}
		fmt.Fprintf(b.out, "spans: %d written to %s (Chrome trace JSON; open in Perfetto)\n", len(all), path)
		agg := aggregate(all)
		u := unitsFrom(agg, pr)
		b.costMap(traced, aggregate(wlSpans), u)
		layers := perLayer(inst, plain, traced, before, after, agg, u, pr)
		layers = append(layers, metric{"trace.spans", "count", float64(len(all))})
		b.layerTable(layers)
		for _, m := range layers {
			res.set(m.name, m.unit, m.value)
		}
	}
	res.Attempted, res.Failed = lg.attempted, lg.failed
	res.Correct = lg.failed == 0 && lg.attempted > 0
	for _, n := range lg.notes {
		fmt.Fprintln(b.out, "FAIL:", n)
	}
	return res, nil
}

// check verifies every recorded output against the plain sweep.
func check(ctx context.Context, inst instance, lg *ledger) {
	ref := newReference()
	defer ref.close()
	inst.verify(ctx, lg, ref)
	lg.verify(ctx, ref, "probe", "fleet")
}

// report prints the end-to-end table: every timing with its median, tail
// and sample count, every rate and count, and the error rate.
func (b *bench) report(p *phase, setupS []float64, lg *ledger) {
	w := b.out
	fmt.Fprintf(w, "\n| metric | unit | median | tail | n |\n|---|---|---:|---:|---:|\n")
	fmt.Fprintf(w, "| setup_s | s | %.4f | max %.4f | %d |\n", quantile(setupS, 0.5), quantile(setupS, 1), len(setupS))
	for _, r := range p.rates {
		fmt.Fprintf(w, "| %s | %s | %.1f | | %d ops, %d passes, %.1f s |\n", r.name, r.unit, r.value, len(p.ops.ms), len(p.passes), p.wall.Seconds())
	}
	for _, t := range append([]*timing{p.ops}, p.timings...) {
		if len(t.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "| %s_ms | ms | %.3f | p%.0f %.3f | %d |\n", t.name, t.p50(), t.tail*100, t.pTail(), len(t.ms))
	}
	for _, c := range p.counts {
		fmt.Fprintf(w, "| %s | %s | %.0f | | |\n", c.name, c.unit, c.value)
	}
	rate := 0.0
	if lg.attempted > 0 {
		rate = float64(lg.failed) / float64(lg.attempted)
	}
	fmt.Fprintf(w, "| error_rate | ratio | %g | | %d attempted |\n\n", rate, lg.attempted)
}

func (b *bench) layerTable(ms []metric) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	fmt.Fprintf(b.out, "\n| per-layer metric | unit | value |\n|---|---|---:|\n")
	for _, m := range ms {
		fmt.Fprintf(b.out, "| %s | %s | %.4g |\n", m.name, m.unit, m.value)
	}
	fmt.Fprintln(b.out)
}

func main() {
	workload := flag.String("workload", "sweep", "workload: sweep or daemon")
	seed := flag.Int64("seed", 1, "workload seed: kernel order, base seeds, warm/cold split, pairs")
	seconds := flag.Int("seconds", 20, "timed seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, cost map, span file")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory (relative keeps socket paths short)")
	flag.Parse()

	work := filepath.Join(*dir, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	// Inline shard checkpoints go to os.TempDir; keep them in the checkout.
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)
	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: work, sz: fullSizes, out: os.Stdout}
	res, err := b.run(context.Background())
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
