package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/fleet"
	"goconcbugs/internal/harness"
)

// fleetShards is the fleet fan-out per job: two shards per daemon, so each
// daemon pulls more than once and the fold merges several payloads.
const fleetShards = 4

// fleetRig is two in-process serve-profile daemons (Workers 1,
// SweepWorkers 1) on unix sockets, which fleet.Run fans sweeps over with
// inline shard payloads and a fold.
type fleetRig struct {
	dir     string
	daemons []*daemon
}

func newFleetRig(dir string) (*fleetRig, error) {
	r := &fleetRig{dir: dir}
	for i := 0; i < 2; i++ {
		d, err := startDaemon(filepath.Join(dir, fmt.Sprintf("fleet%d.sock", i)),
			engine.Options{Workers: 1, SweepWorkers: 1})
		if err != nil {
			r.close()
			return nil, err
		}
		r.daemons = append(r.daemons, d)
	}
	return r, nil
}

func (r *fleetRig) close() {
	for _, d := range r.daemons {
		d.close()
	}
}

// sweep fans job over the daemons, timing each shard through a wrapping
// client (see fleetClock); the fold span runs from the last shard result to
// fleet.Run's return.
func (r *fleetRig) sweep(ctx context.Context, job engine.Job, tr *tracer, jobID, parent int64) (*fleet.Report, error) {
	base := filepath.Join(r.dir, "fleet.ck")
	defer removeCheckpoints(base)
	hosts := make([]string, len(r.daemons))
	for i, d := range r.daemons {
		hosts[i] = d.addr
	}
	clock := &fleetClock{tr: tr, job: jobID, parent: parent, started: map[string]shardStart{}}
	rep, err := fleet.Run(ctx, job, fleet.Options{Hosts: hosts, Shards: fleetShards, CheckpointBase: base,
		LocalEngine: engine.Options{Workers: 1}, Dial: clock.dial})
	if err == nil {
		clock.mu.Lock()
		if !clock.last.IsZero() {
			tr.add("fleet.fold", jobID, tr.id(), parent, clock.last, time.Now())
		}
		clock.mu.Unlock()
	}
	return rep, err
}

func removeCheckpoints(base string) {
	os.Remove(base)
	for i := 0; i < fleetShards; i++ {
		os.Remove(engine.ShardCheckpointName(base, i, fleetShards))
	}
}

// recordFleet checks a fleet run: no error, no shard left to the local
// fallback, and — once verify runs — the fold's text equal to the plain
// sweep's, modulo the fold label.
func recordFleet(lg *ledger, j engine.Job, rep *fleet.Report, err error) {
	var res *engine.Result
	text, problem := "", ""
	if err == nil {
		res = rep.Result
		text = strings.Replace(res.Text, fmt.Sprintf(", fold of %d shards", rep.Shards), "", 1)
		if rep.Degraded || rep.LocalShards != 0 {
			problem = fmt.Sprintf("fleet degraded (%d local shards)", rep.LocalShards)
		}
	}
	lg.record("fleet", j, res, text, err, problem)
}

// fleetTally sums the scheduling counters of fleet runs.
type fleetTally struct {
	shards, attempts, stolen, retried, hedged, local int
}

func (t *fleetTally) add(rep *fleet.Report) {
	t.shards += rep.Shards
	t.local += rep.LocalShards
	for _, d := range rep.Daemons {
		t.attempts += d.Dispatched
		t.stolen += d.Stolen
		t.retried += d.Retried
		t.hedged += d.Hedged
	}
}

// fleetClock times one fleet.Run's shards through the fleet's Dial hook: a
// shard span runs from Enqueue to its Result.
type fleetClock struct {
	tr          *tracer
	job, parent int64

	mu      sync.Mutex
	started map[string]shardStart
	last    time.Time
}

type shardStart struct {
	at   time.Time
	runs int64
}

func (c *fleetClock) dial(host string) fleet.Client {
	return &clockedClient{Client: engine.NewClientWith(host, engine.ClientOptions{ConnectTimeout: 5 * time.Second}), c: c, host: host}
}

// clockedClient keys shards by host as well as ID: every daemon numbers its
// jobs from j-000001.
type clockedClient struct {
	*engine.Client
	c    *fleetClock
	host string
}

func (cc *clockedClient) Enqueue(ctx context.Context, job engine.Job) (string, error) {
	t0 := time.Now()
	id, err := cc.Client.Enqueue(ctx, job)
	if err == nil {
		lo, hi := harness.Shard(job.Runs, job.Shards, job.Shard)
		cc.c.mu.Lock()
		cc.c.started[cc.host+"/"+id] = shardStart{t0, int64(hi - lo)}
		cc.c.mu.Unlock()
	}
	return id, err
}

func (cc *clockedClient) Result(ctx context.Context, id string) (*engine.Result, error) {
	res, err := cc.Client.Result(ctx, id)
	t1 := time.Now()
	c := cc.c
	c.mu.Lock()
	st, ok := c.started[cc.host+"/"+id]
	if ok && err == nil && t1.After(c.last) {
		c.last = t1
	}
	c.mu.Unlock()
	if ok && err == nil {
		c.tr.addWork("fleet.shard", c.job, c.tr.id(), c.parent, st.at, t1, st.runs, int64(len(res.ShardCheckpoint)))
	}
	return res, err
}
