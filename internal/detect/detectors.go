package detect

import (
	"goconcbugs/internal/deadlock"
	"goconcbugs/internal/event"
	"goconcbugs/internal/race"
	"goconcbugs/internal/sim"
	"goconcbugs/internal/vet"
)

// The study's detector set. Registration order is the order the paper
// introduces them: the two it evaluates (builtin, race), then the two its
// Section 7 proposes (leak, vet), then the circular-wait analysis that
// draws Section 4's deadlock-vs-blocking line.
func init() {
	Register(Detector{
		Name: "builtin",
		Desc: "Go's global runtime deadlock detector (Section 5.3)",
		New:  func() Instance { return resultOnly{detect: builtinDetect} },
	})
	Register(Detector{
		Name: "race",
		Desc: "happens-before data race detector, Go's 4 shadow words (Section 5.3)",
		New:  func() Instance { return &raceInstance{det: race.New(0)} },
	})
	Register(Detector{
		Name: "leak",
		Desc: "goroutine-leak / partial-deadlock detector (Implication 4)",
		New:  func() Instance { return resultOnly{detect: leakDetect} },
	})
	Register(Detector{
		Name: "vet",
		Desc: "dynamic misuse-rule checker (Section 7's rule enforcement)",
		New:  func() Instance { return &vetInstance{mon: vet.New()} },
	})
	Register(Detector{
		Name: "cycle",
		Desc: "lock wait-for-graph circular-wait analysis (Section 4)",
		New:  func() Instance { return resultOnly{detect: cycleDetect} },
	})
}

// resultOnly adapts a pure post-run analysis: no event kinds, all the work
// in Finish.
type resultOnly struct {
	detect func(*sim.Result) Verdict
}

func (resultOnly) Kinds() []event.Kind              { return nil }
func (resultOnly) Event(*event.Event)               {}
func (resultOnly) Reset()                           {}
func (r resultOnly) Finish(res *sim.Result) Verdict { return r.detect(res) }

func builtinDetect(res *sim.Result) Verdict {
	d := deadlock.Builtin{}.Detect(res)
	v := Verdict{Detector: "builtin", Detected: d.Detected, Message: d.Message}
	if d.Detected {
		v.Findings = []string{d.Message}
	}
	return v
}

func leakDetect(res *sim.Result) Verdict {
	d := deadlock.Leak{}.Detect(res)
	v := Verdict{Detector: "leak", Detected: d.Detected, Message: d.Message}
	if d.Detected {
		v.Findings = []string{d.Message}
	}
	return v
}

func cycleDetect(res *sim.Result) Verdict {
	c := deadlock.AnalyzeCircularity(res)
	v := Verdict{Detector: "cycle", Detected: c.CircularWait, Message: c.Description}
	if c.CircularWait {
		v.Findings = []string{c.Description}
	}
	return v
}

// raceInstance wraps the happens-before detector (already a native sink).
type raceInstance struct{ det *race.Detector }

func (r *raceInstance) Kinds() []event.Kind   { return r.det.Kinds() }
func (r *raceInstance) Event(ev *event.Event) { r.det.Event(ev) }
func (r *raceInstance) Reset()                { r.det.Reset() }

func (r *raceInstance) Finish(*sim.Result) Verdict {
	v := Verdict{Detector: "race"}
	for _, rep := range r.det.Reports() {
		v.Findings = append(v.Findings, rep.String())
	}
	if len(v.Findings) > 0 {
		v.Detected = true
		v.Message = v.Findings[0]
	}
	return v
}

// vetInstance wraps the rule monitor (already a native sink).
type vetInstance struct{ mon *vet.Monitor }

func (m *vetInstance) Kinds() []event.Kind   { return m.mon.Kinds() }
func (m *vetInstance) Event(ev *event.Event) { m.mon.Event(ev) }
func (m *vetInstance) Reset()                { m.mon.Reset() }

func (m *vetInstance) Finish(*sim.Result) Verdict {
	v := Verdict{Detector: "vet"}
	seen := map[string]bool{}
	for _, viol := range m.mon.Violations() {
		v.Findings = append(v.Findings, viol.String())
		if !seen[string(viol.Rule)] {
			seen[string(viol.Rule)] = true
			v.Rules = append(v.Rules, string(viol.Rule))
		}
	}
	if len(v.Findings) > 0 {
		v.Detected = true
		v.Message = v.Findings[0]
	}
	return v
}
