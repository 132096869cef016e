package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/harness"
	"goconcbugs/internal/kernels"
)

// detectors is the full detector set every job runs: the paper's Table 8/12
// protocol judged by all four detectors in one pass per run.
var detectors = []string{"race", "vet", "leak", "cycle"}

// jobMix is every kernel × {buggy, fixed} as sweep jobs of runs seeds, in a
// seed-shuffled order and with seed-drawn base seeds. limit > 0 keeps only
// the first limit jobs (tiny test sizes).
func jobMix(rng *rand.Rand, runs, limit int) []engine.Job {
	var jobs []engine.Job
	for _, k := range kernels.All() {
		for _, fixed := range []bool{false, true} {
			jobs = append(jobs, sweepJob(k.ID, fixed, 0, runs))
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	if limit > 0 && limit < len(jobs) {
		jobs = jobs[:limit]
	}
	for i := range jobs {
		jobs[i].Seed = 1 + rng.Int63n(1<<20)
	}
	return jobs
}

func sweepJob(kernel string, fixed bool, seed int64, runs int) engine.Job {
	return engine.Job{Kind: engine.KindSweep, Kernel: kernel, Fixed: fixed,
		Seed: seed, Runs: runs, Detectors: detectors}
}

// jobKey identifies a job's deterministic output: equal keys must render
// equal text on every path.
func jobKey(j engine.Job) string {
	return fmt.Sprintf("%s/%v/%d/%d", j.Kernel, j.Fixed, j.Seed, j.Runs)
}

func hashText(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// ledger checks every operation's output. During the timed phase it keeps
// only a hash per (path, job) — so checking costs the timed loop almost
// nothing — and flags a path whose output for one job changes between
// calls. verify then compares each path's output with the plain in-process
// sweep of the same job. Every problem is a failed operation, never a crash.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
	seen      map[string]*seenEntry
}

type seenEntry struct {
	path string
	job  engine.Job
	hash uint64
	n    int // operations that returned this output
	// checked marks an entry verify has compared, so paths verified by
	// both a workload and the probes count each failure once.
	checked bool
}

func newLedger() *ledger { return &ledger{seen: map[string]*seenEntry{}} }

// record checks one operation. text is the path's canonical output,
// already stripped of any path-specific label; problem, when non-empty, is
// a path-specific failure the caller detected (a degraded fleet, a warm
// request the cache did not serve).
func (l *ledger) record(path string, job engine.Job, res *engine.Result, text string, err error, problem string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	switch {
	case err != nil:
		problem = err.Error()
	case problem != "":
	case res.Verdict.Status == harness.Incomplete:
		problem = "incomplete verdict: " + res.Verdict.String()
	case job.Fixed && res.Fired:
		problem = "fixed variant fired"
	}
	if problem != "" {
		l.failLocked(1, "%s %s: %s", path, jobKey(job), problem)
		return
	}
	h := hashText(text)
	k := path + "|" + jobKey(job)
	e := l.seen[k]
	if e == nil {
		l.seen[k] = &seenEntry{path: path, job: job, hash: h, n: 1}
		return
	}
	if e.hash != h {
		l.failLocked(1, "%s %s: output differs from an earlier call", path, jobKey(job))
		return
	}
	e.n++
}

func (l *ledger) failLocked(n int, format string, args ...any) {
	l.failed += n
	if len(l.notes) < 5 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// verify compares every recorded output of the given paths with the plain
// in-process sweep of the same job; each mismatching operation fails. The
// reference sweeps run on GOMAXPROCS goroutines.
func (l *ledger) verify(ctx context.Context, ref *reference, paths ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var todo []*seenEntry
	for _, e := range l.seen {
		if !e.checked && slices.Contains(paths, e.path) {
			e.checked = true
			todo = append(todo, e)
		}
	}
	sort.Slice(todo, func(i, j int) bool { return jobKey(todo[i].job) < jobKey(todo[j].job) })
	errs := make([]error, len(todo))
	hashes := make([]uint64, len(todo))
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(todo); i = int(next.Add(1)) - 1 {
				var want string
				want, errs[i] = ref.text(ctx, todo[i].job)
				hashes[i] = hashText(want)
			}
		}()
	}
	wg.Wait()
	for i, e := range todo {
		switch {
		case errs[i] != nil:
			l.failLocked(e.n, "reference %s: %v", jobKey(e.job), errs[i])
		case hashes[i] != e.hash:
			l.failLocked(e.n, "%s %s: output differs from the plain sweep", e.path, jobKey(e.job))
		}
	}
}

// reference renders the plain in-process sweep of a job — no checkpoint,
// no store, no daemon — which every other path must match byte for byte.
// Its engine runs one job per GOMAXPROCS worker; a sweep's text does not
// depend on how its runs were spread over workers.
type reference struct {
	eng *engine.Engine

	mu    sync.Mutex
	texts map[string]string
}

func newReference() *reference {
	return &reference{eng: engine.New(engine.Options{SweepWorkers: 1}), texts: map[string]string{}}
}

func (r *reference) text(ctx context.Context, job engine.Job) (string, error) {
	job.Checkpoint = ""
	k := jobKey(job)
	r.mu.Lock()
	t, ok := r.texts[k]
	r.mu.Unlock()
	if ok {
		return t, nil
	}
	res, err := r.eng.Submit(ctx, job)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.texts[k] = res.Text
	r.mu.Unlock()
	return res.Text, nil
}

func (r *reference) close() { r.eng.Close() }
