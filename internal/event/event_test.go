package event

import "testing"

type recorder struct {
	kinds   []Kind
	got     []Kind
	endings int
}

func (r *recorder) Kinds() []Kind   { return r.kinds }
func (r *recorder) Event(ev *Event) { r.got = append(r.got, ev.Kind) }
func (r *recorder) RunEnd()         { r.endings++ }

func TestMuxDispatchesByKind(t *testing.T) {
	mem := &recorder{kinds: []Kind{MemRead, MemWrite}}
	chn := &recorder{kinds: []Kind{ChanSend, MemWrite}}
	m := NewMux([]Sink{mem, chn})

	for _, k := range []Kind{MemRead, ChanSend, MemWrite, MutexLock} {
		if m.Wants(k) {
			m.Emit(&Event{Kind: k})
		}
	}
	if m.Wants(MutexLock) {
		t.Error("Wants(MutexLock) = true with no subscriber")
	}
	want := func(r *recorder, ks ...Kind) {
		t.Helper()
		if len(r.got) != len(ks) {
			t.Fatalf("got %v, want %v", r.got, ks)
		}
		for i, k := range ks {
			if r.got[i] != k {
				t.Fatalf("got %v, want %v", r.got, ks)
			}
		}
	}
	want(mem, MemRead, MemWrite)
	want(chn, ChanSend, MemWrite)

	m.RunEnd()
	if mem.endings != 1 || chn.endings != 1 {
		t.Errorf("RunEnd deliveries = %d, %d; want 1, 1", mem.endings, chn.endings)
	}
}

func TestMuxIgnoresDuplicateAndInvalidKinds(t *testing.T) {
	r := &recorder{kinds: []Kind{MemRead, MemRead, KindInvalid, NumKinds, Kind(200)}}
	m := NewMux([]Sink{nil, r})
	m.Emit(&Event{Kind: MemRead})
	if len(r.got) != 1 {
		t.Errorf("duplicate subscription delivered %d times, want 1", len(r.got))
	}
}

func TestNewMuxEmptyIsNil(t *testing.T) {
	if NewMux(nil) != nil {
		t.Error("NewMux(nil) != nil; the no-sink fast path depends on a nil mux")
	}
}

func TestKindStringsAreDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < NumKinds; k++ {
		s := k.String()
		if s == "" || s == "invalid" {
			t.Errorf("kind %d has no name", k)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}

// valueSink is a sink with no identity: a non-pointer type.
type valueSink struct{ kinds []Kind }

func (v valueSink) Kinds() []Kind { return v.kinds }
func (valueSink) Event(*Event)    {}

func TestMuxServesSameSinksOnly(t *testing.T) {
	a := &recorder{kinds: []Kind{MemRead}}
	b := &recorder{kinds: []Kind{ChanSend}}
	m := NewMux([]Sink{a, b})
	if !m.Serves([]Sink{a, b}) {
		t.Error("Serves(same sinks, same order) = false")
	}
	for name, sinks := range map[string][]Sink{
		"reordered": {b, a},
		"shorter":   {a},
		"longer":    {a, b, a},
		"other":     {a, &recorder{kinds: []Kind{ChanSend}}},
		"empty":     nil,
	} {
		if m.Serves(sinks) {
			t.Errorf("Serves(%s) = true", name)
		}
	}
	var none *Mux
	if !none.Serves(nil) || none.Serves([]Sink{a}) {
		t.Error("a nil Mux must serve exactly the empty list")
	}
	// A value sink (here holding a slice, so comparing it would panic)
	// never matches; the caller rebuilds.
	v := valueSink{kinds: []Kind{MemRead}}
	if NewMux([]Sink{v}).Serves([]Sink{v}) {
		t.Error("Serves matched a value sink")
	}
	if !NewMux([]Sink{nil, a}).Serves([]Sink{nil, a}) {
		t.Error("Serves(nil entries) = false")
	}
}
