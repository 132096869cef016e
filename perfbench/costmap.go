package main

import (
	"fmt"
	"time"

	"goconcbugs/internal/engine"
)

// units are per-call layer costs in µs, measured by the probes.
type units struct {
	simRun    float64 // fresh sim.Run
	pooledRun float64 // sim.RunPool.Run
	runAll    float64 // detect.RunAll, all four detectors
	detect    float64 // RunAll minus sim.Run (paired median): event mux and detectors, per run
	fold      float64 // detect.Sweep per run minus its runs: the seed-order fold
	ckpt      float64 // checkpoint encode and fsync, per run
	engCold   float64 // Engine.Submit minus detect.Sweep, per job
	engWarm   float64 // Engine.Submit served from the store
	ipcWarm   float64 // Client.Submit minus Engine.Submit, warm
	storeGet  float64
}

func meanUS(a map[string]*layerStat, name string) float64 {
	s := a[name]
	if s == nil || s.Calls == 0 {
		return 0
	}
	return float64(s.Total) / 1e3 / float64(s.Calls)
}

func perRunUS(a map[string]*layerStat, name string) float64 {
	s := a[name]
	if s == nil || s.Runs == 0 {
		return 0
	}
	return float64(s.Total) / 1e3 / float64(s.Runs)
}

func medianUS(a map[string]*layerStat, name string) float64 {
	if s := a[name]; s != nil && s.Calls > 0 {
		return s.median()
	}
	return 0
}

func unitsFrom(a map[string]*layerStat, pr *probes) units {
	u := units{
		simRun:    meanUS(a, "sim.Run"),
		pooledRun: meanUS(a, "sim.RunPool.Run"),
		runAll:    meanUS(a, "detect.RunAll"),
		engWarm:   medianUS(a, "engine.Submit/warm-probe"),
		storeGet:  medianUS(a, "store.Get"),
	}
	if d := pr.selfDiffs[""]; len(d) > 0 {
		u.detect = quantile(d, 0.5)
	}
	u.fold = max(0, perRunUS(a, "detect.Sweep")-u.pooledRun-u.detect)
	u.ckpt = max(0, perRunUS(a, "detect.Sweep+checkpoint")-perRunUS(a, "detect.Sweep"))
	if len(pr.coldDiffs) > 0 {
		u.engCold = quantile(pr.coldDiffs, 0.5)
	}
	u.ipcWarm = medianUS(a, "ipc.Submit/warm-probe") - u.engWarm
	return u
}

// costMap splits a traced phase's wall time across layers. A layer the
// benchmark calls directly is measured by its spans' self time. Work inside
// one opaque call (Engine.Submit runs sim, detect and engine code with no
// span inside the program) is split in proportion to the probes' unit
// costs times the calls the phase made; such rows are marked "*".
type costMap struct {
	rows  map[string]*costRow
	wall  time.Duration
	lanes int
}

type costRow struct {
	calls      int64
	self       time.Duration
	attributed bool
}

type part struct {
	layer  string
	calls  int64
	weight float64 // µs
}

var layerOrder = []string{"sim", "detect", "harness", "engine", "store", "ipc", "fleet", "bench"}

func (c *costMap) row(layer string) *costRow {
	r := c.rows[layer]
	if r == nil {
		r = &costRow{}
		c.rows[layer] = r
	}
	return r
}

func (c *costMap) measured(layer string, s *layerStat) {
	if s == nil {
		return
	}
	r := c.row(layer)
	r.calls += int64(s.Calls)
	r.self += s.Self
}

// split attributes self, the time inside opaque calls, across parts by
// weight.
func (c *costMap) split(self time.Duration, parts ...part) {
	var sum float64
	for _, p := range parts {
		sum += max(0, p.weight)
	}
	for _, p := range parts {
		r := c.row(p.layer)
		r.calls += p.calls
		r.attributed = true
		if sum > 0 {
			r.self += time.Duration(float64(self) * max(0, p.weight) / sum)
		}
	}
}

// costMap prints the traced phase's per-layer split for the workload.
func (b *bench) costMap(p *phase, a map[string]*layerStat, u units) {
	c := &costMap{rows: map[string]*costRow{}, wall: p.wall, lanes: 1}
	var inSpans time.Duration
	runs := func(s *layerStat) int64 {
		if s == nil {
			return 0
		}
		return s.Runs
	}
	calls := func(s *layerStat) int64 {
		if s == nil {
			return 0
		}
		return int64(s.Calls)
	}
	self := func(s *layerStat) time.Duration {
		if s == nil {
			return 0
		}
		return s.Self
	}
	// execution splits time inside calls that executed sweeps.
	execution := func(s *layerStat, in time.Duration, extra ...part) {
		n, k := runs(s), calls(s)
		parts := append([]part{
			{"sim", n, float64(n) * u.pooledRun},
			{"detect", n, float64(n) * (u.detect + u.fold)},
			{"engine", k, float64(k) * u.engCold},
		}, extra...)
		c.split(in, parts...)
	}
	switch b.workload {
	case "sweep":
		execution(a["engine.Submit"], self(a["engine.Submit"]))
		inSpans = total(a, "engine.Submit")
	case "daemon":
		c.lanes = 2
		c.measured("store", a["store.Get"])
		c.measured("store", a["store.PutKey"])
		w := a["ipc.Submit/warm"]
		c.split(self(w), part{"ipc", calls(w), float64(calls(w)) * u.ipcWarm},
			part{"engine", calls(w), float64(calls(w)) * max(0, u.engWarm-u.storeGet)})
		cold := a["ipc.Submit/cold"]
		execution(cold, self(cold), part{"ipc", calls(cold), float64(calls(cold)) * u.ipcWarm})
		inSpans = total(a, "ipc.Submit/warm") + total(a, "ipc.Submit/cold")
	}
	r := c.row("bench")
	r.self += time.Duration(c.lanes)*c.wall - inSpans

	fmt.Fprintf(b.out, "\ncost map: %s, traced half (%.1f s wall × %d lane(s)); * = split of an opaque call by probe unit costs\n\n",
		b.workload, c.wall.Seconds(), c.lanes)
	fmt.Fprintf(b.out, "| layer | calls | self time | share of wall |\n|---|---:|---:|---:|\n")
	for _, l := range layerOrder {
		r := c.rows[l]
		if r == nil {
			r = &costRow{}
		}
		name := l
		if r.attributed {
			name += "*"
		}
		share := float64(r.self) / float64(time.Duration(c.lanes)*c.wall) * 100
		fmt.Fprintf(b.out, "| %s | %d | %.3f s | %.1f%% |\n", name, r.calls, r.self.Seconds(), share)
	}
}

func total(a map[string]*layerStat, name string) time.Duration {
	if s := a[name]; s != nil {
		return s.Total
	}
	return 0
}

// perLayer assembles the per-layer metrics of a traced run. Times and sizes
// pool every span of a name in the run — the workload's traced half and the
// probes — so each has a value on every workload. The sim and engine
// counters count the traced half of the workload alone; the fleet counters
// come from the probes' fleet runs, the only fleet runs there are.
func perLayer(inst instance, plain, traced *phase, before, after engine.Stats, a map[string]*layerStat, u units, pr *probes) []metric {
	ms := []metric{
		{"sim.run_us", "us", u.simRun},
		{"sim.pooled_run_us", "us", u.pooledRun},
		{"sim.runs", "count", float64(executedRuns(inst, traced, before, after))},
		{"detect.runall_us", "us", u.runAll},
		{"detect.sweep_us_per_run", "us", perRunUS(a, "detect.Sweep")},
		{"detect.checkpoint_us_per_run", "us", u.ckpt},
		{"detect.checkpoint_bytes_per_run", "B", pr.ckBytes},
		{"detect.merge_ms", "ms", meanUS(a, "detect.MergeSweepCheckpoints") / 1e3},
		{"harness.save_ms", "ms", meanUS(a, "harness.SaveCheckpoint") / 1e3},
		{"engine.cold_overhead_us", "us", u.engCold},
		{"engine.warm_us", "us", u.engWarm},
		{"engine.executed", "count", float64(after.Executed - before.Executed)},
		{"engine.cache_hits", "count", float64(after.CacheHits - before.CacheHits)},
		{"engine.coalesced", "count", float64(after.Coalesced - before.Coalesced)},
		{"engine.errored", "count", float64(after.Errored - before.Errored)},
		{"store.get_us", "us", u.storeGet},
		{"store.put_ms", "ms", medianUS(a, "store.PutKey") / 1e3},
		{"ipc.health_rtt_us", "us", medianUS(a, "ipc.Health")},
		{"ipc.warm_overhead_us", "us", u.ipcWarm},
		{"fleet.shard_ms", "ms", medianUS(a, "fleet.shard") / 1e3},
		{"fleet.fold_ms", "ms", medianUS(a, "fleet.fold") / 1e3},
	}
	for _, d := range detectors {
		ms = append(ms,
			metric{"detect." + d + ".self_us", "us", quantile(pr.selfDiffs[d], 0.5)},
			metric{"detect." + d + ".events_per_run", "count", pr.events[d]})
	}
	if s := a["fleet.shard"]; s != nil && s.Runs > 0 {
		ms = append(ms, metric{"fleet.payload_bytes_per_run", "B", float64(s.Bytes) / float64(s.Runs)})
	} else {
		ms = append(ms, metric{"fleet.payload_bytes_per_run", "B", 0})
	}
	var hitRate, live float64
	if after.Store != nil {
		if n := after.Store.Hits + after.Store.Misses; n > 0 {
			hitRate = float64(after.Store.Hits) / float64(n)
		}
		live = float64(after.Store.LiveBytes)
	}
	ms = append(ms, metric{"store.hit_rate", "ratio", hitRate}, metric{"store.live_bytes", "B", live})

	ft := pr.tally
	perShard := 0.0
	if ft.shards > 0 {
		perShard = float64(ft.attempts) / float64(ft.shards)
	}
	ms = append(ms,
		metric{"fleet.attempts_per_shard", "count", perShard},
		metric{"fleet.stolen", "count", float64(ft.stolen)},
		metric{"fleet.retried", "count", float64(ft.retried)},
		metric{"fleet.hedged", "count", float64(ft.hedged)},
		metric{"fleet.local_shards", "count", float64(ft.local)})

	overhead := 0.0
	if r := plain.rateOf("runs_per_s"); r > 0 {
		overhead = (r - traced.rateOf("runs_per_s")) / r * 100
	}
	return append(ms, metric{"trace.overhead_pct", "%", overhead})
}

// executedRuns is the seeds the traced half executed (cache hits and
// coalesced shares execute none).
func executedRuns(inst instance, traced *phase, before, after engine.Stats) int64 {
	if db, ok := inst.(*daemonBench); ok {
		return int64(after.Executed-before.Executed) * int64(db.runs)
	}
	return traced.runs
}
