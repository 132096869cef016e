package main

import (
	"context"
	"math/rand"
	"time"

	"goconcbugs/internal/engine"
)

// sweepBench is the paper's protocol at volume: every kernel × variant as a
// plain in-process sweep through a CLI-profile engine (one job at a time,
// runs fanned over GOMAXPROCS), no checkpoint, no store. sim and detect do
// nearly all the work; checkpoint, store, ipc and fleet do none.
type sweepBench struct {
	eng  *engine.Engine
	jobs []engine.Job
}

func setupSweep(b *bench) (instance, error) {
	s := &sweepBench{
		eng:  engine.New(engine.Options{Workers: 1}),
		jobs: jobMix(rand.New(rand.NewSource(b.seed)), b.sz.sweepRuns, b.sz.jobs),
	}
	// Warm-up: one short sweep of every job, so runtime pools and the
	// kernels' code are resident before timing.
	for _, j := range s.jobs {
		j.Runs = b.sz.warmupRuns
		if _, err := s.eng.Submit(context.Background(), j); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *sweepBench) run(ctx context.Context, d time.Duration, tr *tracer, lg *ledger) *phase {
	p := newPhase("job", 0.9)
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		pass := p.beginPass()
		for _, j := range s.jobs {
			if !time.Now().Before(deadline) {
				pass = nil
				break
			}
			id := tr.id()
			t0 := time.Now()
			res, err := s.eng.Submit(ctx, j)
			t1 := time.Now()
			tr.addWork("engine.Submit", id, id, 0, t0, t1, int64(j.Runs), 0)
			text := ""
			if err == nil {
				text = res.Text
			}
			// The sweep path is the reference itself: the ledger checks it
			// against its own earlier passes and the fixed-variant rule.
			lg.record("sweep", j, res, text, err, "")
			p.ops.add(ms(t1.Sub(t0)))
			p.runs += int64(j.Runs)
		}
		p.endPass(pass)
	}
	p.wall = time.Since(start)
	p.rate("runs_per_s", "runs/s", p.passRate())
	return p
}

func (s *sweepBench) verify(context.Context, *ledger, *reference) {}

func (s *sweepBench) stats() engine.Stats { return s.eng.Stats() }

func (s *sweepBench) close() { s.eng.Close() }
