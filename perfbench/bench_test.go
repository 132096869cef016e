package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/fleet"
	"goconcbugs/internal/harness"
)

// tinySizes keeps a whole workload run under a few seconds.
var tinySizes = sizes{
	sweepRuns: 20, daemonRuns: 10, warmupRuns: 5,
	jobs: 6, warmKeys: 4, probeRuns: 2, probeJobs: 2, probeJobRuns: 20, setups: 2,
}

type spec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, workload string, traced bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	// Socket paths must stay short; run from the temp dir with relative paths.
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	b := &bench{workload: workload, seed: 7, seconds: 600 * time.Millisecond, trace: traced,
		dir: filepath.Join("run", "w"), sz: tinySizes, out: &out}
	res, err := b.run(context.Background())
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestWorkloadsReportEveryMetric runs each workload at tiny size, untraced
// and traced, and checks the result object carries exactly the metrics
// BENCHMARK.json names, with their units, and no failed operation.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			res, out := tinyRun(t, w.Name, traced)
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			if !traced && !strings.Contains(out, "| error_rate | ratio | 0 |") {
				t.Errorf("%s: report lacks a zero error_rate row:\n%s", w.Name, out)
			}
			if traced && !strings.Contains(out, "| layer | calls | self time | share of wall |") {
				t.Errorf("%s: traced report lacks the cost map:\n%s", w.Name, out)
			}
		}
	}
}

// TestCorruptedResultsFail feeds the ledger results that are wrong in each
// way the benchmark checks, so error_rate cannot read zero vacuously.
func TestCorruptedResultsFail(t *testing.T) {
	ctx := context.Background()
	job := sweepJob("docker-abba-order", false, 3, 20)
	eng := engine.New(engine.Options{Workers: 1})
	defer eng.Close()
	good, err := eng.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	fixedJob := job
	fixedJob.Fixed = true
	fired := *good
	fired.Job, fired.Fired = fixedJob, true

	ref := newReference()
	defer ref.close()
	lg := newLedger()
	lg.record("daemon", job, good, good.Text, nil, "")
	lg.record("probe", job, good, good.Text+"corrupted", nil, "")
	lg.record("daemon", job, good, good.Text+"x", nil, "") // differs from its earlier call
	lg.record("daemon", fixedJob, &fired, fired.Text, nil, "")
	lg.record("fleet", job, good, good.Text, nil, "fleet degraded (1 local shards)")
	lg.record("daemon", job, nil, "", engine.ErrBusy, "")
	incomplete := *good
	incomplete.Verdict = harness.Incompletef(harness.ReasonCanceled, "cut")
	lg.record("probe", job, &incomplete, incomplete.Text, nil, "")
	lg.verify(ctx, ref, "daemon", "probe", "fleet")
	if lg.attempted != 7 || lg.failed != 6 {
		t.Fatalf("attempted %d failed %d, want 7 and 6; notes %q", lg.attempted, lg.failed, lg.notes)
	}
}

// TestRecordFleetChecksDegradation pins that a degraded fleet run fails.
func TestRecordFleetChecksDegradation(t *testing.T) {
	lg := newLedger()
	res := &engine.Result{Text: "t"}
	recordFleet(lg, sweepJob("docker-abba-order", false, 1, 10), &fleet.Report{Result: res, Shards: 4, Degraded: true, LocalShards: 1}, nil)
	if lg.failed != 1 {
		t.Fatalf("degraded fleet run not counted as failed")
	}
}

func TestCovered(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 50 {
		t.Fatalf("covered = %v, want 50", got)
	}
}
