package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one job
// share Job; Parent is the ID of the span whose call caused this one (0 for
// a root).
type span struct {
	Name       string
	Job        int64
	ID, Parent int64
	Start, End time.Duration // since the tracer's origin
	// Runs and Bytes are the work the call did, where the benchmark can
	// see it: seeds executed and payload bytes returned.
	Runs, Bytes int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay one nil check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID before the call starts, so children that finish
// first can name their parent.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records the finished span [start, end].
func (t *tracer) add(name string, job, id, parent int64, start, end time.Time) {
	t.addWork(name, job, id, parent, start, end, 0, 0)
}

// addWork is add for a call whose work the benchmark can count.
func (t *tracer) addWork(name string, job, id, parent int64, start, end time.Time, runs, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, job, id, parent, start.Sub(t.t0), end.Sub(t.t0), runs, bytes})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name  string
	Calls int
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the union of each span's children
	Runs  int64
	Bytes int64
	durs  []float64 // per-call durations, µs
}

// median is the median call duration in µs.
func (l *layerStat) median() float64 { return quantile(l.durs, 0.5) }

// aggregate derives per-name call counts, total and self time. A span's self
// time is its duration minus the part of its interval its children cover;
// children may overlap (shards on two daemons), so the union is subtracted.
func aggregate(spans []span) map[string]*layerStat {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Calls++
		st.Total += d
		st.Self += d - covered(s, kids[s.ID])
		st.Runs += s.Runs
		st.Bytes += s.Bytes
		st.durs = append(st.durs, float64(d)/1e3)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				sum += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		sum += curEnd - cur
	}
	return sum
}

// writeChrome writes the spans in Chrome trace-event JSON (complete "X"
// events), which Perfetto and chrome://tracing open. Each job gets its own
// track so one job's spans nest visually.
func writeChrome(w io.Writer, spans []span) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]ev, len(spans))
	for i, s := range spans {
		evs[i] = ev{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Job,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

func saveChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// layerOf maps a span name ("store.Get") to its layer ("store").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
