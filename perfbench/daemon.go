package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goconcbugs/internal/engine"
	"goconcbugs/internal/store"
)

// daemon is an in-process `godetect serve`: an engine behind an
// engine.Server on a unix socket.
type daemon struct {
	eng  *engine.Engine
	srv  *engine.Server
	addr string
	done chan error
}

func startDaemon(sock string, opts engine.Options) (*daemon, error) {
	os.Remove(sock)
	eng := engine.New(opts)
	srv := engine.NewServer(eng)
	if err := srv.Listen(sock); err != nil {
		eng.Close()
		return nil, fmt.Errorf("daemon %s: %w", sock, err)
	}
	d := &daemon{eng: eng, srv: srv, addr: sock, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve() }()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		d.srv.Close()
	}
	<-d.done
	d.eng.Close()
	os.Remove(d.addr)
}

const (
	// warmShare is the share of requests for a pre-warmed key.
	warmShare = 0.8
	// pairEvery: each client's every pairEvery-th request is a fresh key
	// that both clients send at once, so the engine coalesces them.
	pairEvery = 32
	// freshBase puts fresh seed ranges far above the job mix's base seeds
	// (drawn below 1<<20), so a fresh key never hits the warm set.
	freshBase = 1 << 30
)

// daemonBench is one serve-profile daemon with a file-backed store and two
// closed-loop clients: callers of `godetect -remote` block on ?wait=1, so a
// client sends its next request only when the last one answered.
type daemonBench struct {
	seed  int64
	runs  int
	st    *store.Store
	ts    *timedStore
	d     *daemon
	warm  []engine.Job
	mix   []engine.Job // kernel × variant templates for fresh keys
	phase int
}

func setupDaemon(b *bench) (instance, error) {
	path := filepath.Join(b.dir, "verdicts.db")
	os.Remove(path)
	st, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	ts := &timedStore{st: st, reqs: map[string]int64{}}
	d, err := startDaemon(filepath.Join(b.dir, "daemon.sock"), engine.Options{
		Workers: runtime.GOMAXPROCS(0), SweepWorkers: 1, Store: ts})
	if err != nil {
		st.Close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	mix := jobMix(rng, b.sz.daemonRuns, b.sz.jobs)
	db := &daemonBench{seed: b.seed, runs: b.sz.daemonRuns, st: st, ts: ts, d: d, mix: mix}
	for i := 0; i < b.sz.warmKeys; i++ {
		j := mix[rng.Intn(len(mix))]
		j.Seed = 1 + rng.Int63n(1<<20)
		db.warm = append(db.warm, j)
	}
	// Pre-warm: every warm key executes once and lands in the store.
	for _, j := range db.warm {
		if _, err := d.eng.Submit(context.Background(), j); err != nil {
			db.close()
			return nil, err
		}
	}
	return db, nil
}

// freshJob is a never-requested seed range of a seeded kernel variant.
// slot separates the clients' streams (0, 1) from the shared pairs (2);
// the phase number keeps a traced run's phases from repeating keys.
func (db *daemonBench) freshJob(rng *rand.Rand, slot, n int) engine.Job {
	j := db.mix[rng.Intn(len(db.mix))]
	j.Seed = freshBase + int64(((db.phase*4+slot)<<24)+n)*int64(db.runs)
	return j
}

// qpsSlice is the window daemon throughput is counted in: qps is the
// median over the phase's whole slices, which a stretch of host noise moves
// less than a whole-phase average.
const qpsSlice = time.Second

type clientLog struct {
	warm, cold []float64
	requests   int
	perSlice   []int // requests completed in each qpsSlice since the start
}

func (db *daemonBench) run(ctx context.Context, dur time.Duration, tr *tracer, lg *ledger) *phase {
	p := newPhase("request", 0.9)
	warmT := p.timing("warm", 0.99)
	coldT := p.timing("cold", 0.9)
	db.ts.trace(tr)
	defer db.ts.trace(nil)
	before := db.d.eng.Stats()

	start := time.Now()
	meetCtx, cancel := context.WithDeadline(ctx, start.Add(dur))
	defer cancel()
	rv := &rendezvous{waiting: map[int]chan struct{}{}}
	logs := make([]clientLog, 2)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			db.client(ctx, meetCtx, start, c, rv, tr, lg, &logs[c])
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	db.phase++

	requests := 0
	whole := int(dur / qpsSlice)
	perSlice := make([]float64, whole)
	for _, l := range logs {
		requests += l.requests
		for i := 0; i < whole && i < len(l.perSlice); i++ {
			perSlice[i] += float64(l.perSlice[i]) / qpsSlice.Seconds()
		}
		warmT.ms = append(warmT.ms, l.warm...)
		coldT.ms = append(coldT.ms, l.cold...)
		p.ops.ms = append(p.ops.ms, l.warm...)
		p.ops.ms = append(p.ops.ms, l.cold...)
	}
	after := db.d.eng.Stats()
	p.runs = int64(requests) * int64(db.runs)
	qps := float64(requests) / p.wall.Seconds()
	if whole > 0 {
		qps = quantile(perSlice, 0.5)
	}
	p.rate("runs_per_s", "runs/s", qps*float64(db.runs))
	p.rate("qps", "req/s", qps)
	p.count("coalesced", float64(after.Coalesced-before.Coalesced))
	return p
}

// client is one closed-loop caller. Its request stream — warm or fresh,
// which kernel, which seed range, when to pair — is a pure function of the
// workload seed, the phase and the client number.
func (db *daemonBench) client(ctx, meetCtx context.Context, start time.Time, c int, rv *rendezvous, tr *tracer, lg *ledger, out *clientLog) {
	cl := engine.NewClient(db.d.addr)
	defer cl.Close()
	rng := rand.New(rand.NewSource(db.seed*1_000_003 + int64(db.phase)*2 + int64(c)))
	for n := 0; meetCtx.Err() == nil; n++ {
		var job engine.Job
		warm := false
		switch {
		case (n+1)%pairEvery == 0:
			pi := n / pairEvery
			job = db.freshJob(rand.New(rand.NewSource(db.seed*7919+int64(db.phase)*1_000_003+int64(pi))), 2, pi)
			if !rv.meet(meetCtx, pi) {
				return
			}
		case rng.Float64() < warmShare:
			job = db.warm[rng.Intn(len(db.warm))]
			warm = true
		default:
			job = db.freshJob(rng, c, n)
		}
		id := tr.id()
		db.ts.register(job, id)
		t0 := time.Now()
		res, err := cl.Submit(ctx, job)
		t1 := time.Now()
		name, runs := "ipc.Submit/cold", int64(job.Runs)
		if warm {
			name, runs = "ipc.Submit/warm", 0
		}
		tr.addWork(name, id, id, 0, t0, t1, runs, 0)
		text, problem := "", ""
		if err == nil {
			text = res.Text
			if warm && !res.CacheHit {
				problem = "warm key not served from the store"
			}
		}
		lg.record("daemon", job, res, text, err, problem)
		out.requests++
		slice := int(t1.Sub(start) / qpsSlice)
		for len(out.perSlice) <= slice {
			out.perSlice = append(out.perSlice, 0)
		}
		out.perSlice[slice]++
		if warm {
			out.warm = append(out.warm, ms(t1.Sub(t0)))
		} else {
			out.cold = append(out.cold, ms(t1.Sub(t0)))
		}
	}
}

func (db *daemonBench) verify(ctx context.Context, lg *ledger, ref *reference) {
	lg.verify(ctx, ref, "daemon")
}

func (db *daemonBench) stats() engine.Stats { return db.d.eng.Stats() }

func (db *daemonBench) close() {
	db.d.close()
	db.st.Close()
}

// rendezvous lets both clients send a paired request at the same moment.
type rendezvous struct {
	mu      sync.Mutex
	waiting map[int]chan struct{}
}

// meet blocks until the other client reaches pair i or ctx ends (the
// other client stopped at the deadline); it reports whether to send.
func (r *rendezvous) meet(ctx context.Context, i int) bool {
	r.mu.Lock()
	if ch, ok := r.waiting[i]; ok {
		delete(r.waiting, i)
		r.mu.Unlock()
		close(ch)
		return true
	}
	ch := make(chan struct{})
	r.waiting[i] = ch
	r.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// timedStore is the VerdictStore the benchmark hands the daemon's engine:
// with a tracer set it records a span per Get and PutKey, parented to the
// request that caused it.
type timedStore struct {
	st *store.Store
	tr atomic.Pointer[tracer]

	mu   sync.Mutex
	reqs map[string]int64 // jobKey → span ID of its latest request
}

func (s *timedStore) trace(tr *tracer) {
	s.mu.Lock()
	s.reqs = map[string]int64{}
	s.mu.Unlock()
	s.tr.Store(tr)
}

func (s *timedStore) register(job engine.Job, id int64) {
	if s.tr.Load() == nil {
		return
	}
	s.mu.Lock()
	s.reqs[jobKey(job)] = id
	s.mu.Unlock()
}

func (s *timedStore) parent(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reqs[storeJobKey(key)]
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	tr := s.tr.Load()
	if tr == nil {
		return s.st.Get(key)
	}
	t0 := time.Now()
	v, ok := s.st.Get(key)
	t1 := time.Now()
	p := s.parent(key)
	tr.add("store.Get", p, tr.id(), p, t0, t1)
	return v, ok
}

func (s *timedStore) PutKey(k store.Key, val []byte) error {
	tr := s.tr.Load()
	if tr == nil {
		return s.st.PutKey(k, val)
	}
	t0 := time.Now()
	err := s.st.PutKey(k, val)
	t1 := time.Now()
	p := s.parent(k.String())
	tr.addWork("store.PutKey", p, tr.id(), p, t0, t1, 0, int64(len(val)))
	return err
}

func (s *timedStore) Stats() store.Stats { return s.st.Stats() }

// storeJobKey recovers the benchmark's jobKey from a canonical store key
// ("sweep/v1 prog=K variant=V ... | base=B runs=R"), so a store span can
// name the request that caused it. Unparsable keys map to no request.
func storeJobKey(key string) string {
	var prog, variant string
	var base, runs int64
	for _, f := range strings.Fields(key) {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch name {
		case "prog":
			prog = val
		case "variant":
			variant = val
		case "base":
			base, _ = strconv.ParseInt(val, 10, 64)
		case "runs":
			runs, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return fmt.Sprintf("%s/%v/%d/%d", prog, variant == "fixed", base, runs)
}
