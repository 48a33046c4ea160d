package main

import (
	"testing"
	"time"
)

func TestAttributeSelfTimes(t *testing.T) {
	ms := time.Millisecond
	marks := []mark{
		{At: 2 * ms, Span: "setup"},
		{At: 5 * ms, Span: "sparsify"},
		{At: 9 * ms, Span: "seed-search"},
		{At: 9 * ms, Span: "seed-search", Charged: true},
		{At: 20 * ms, Span: "seed-search"},
		{At: 21 * ms, Span: "finish"},
	}
	b := attribute(marks, 25*ms)
	if b.Pre != 2*ms || b.Tail != 4*ms {
		t.Errorf("pre, tail = %v, %v; want 2ms, 4ms", b.Pre, b.Tail)
	}
	want := map[string]time.Duration{"sparsify": 3 * ms, "seed-search": 15 * ms, "finish": 1 * ms}
	if len(b.Self) != len(want) {
		t.Errorf("self = %v, want %v", b.Self, want)
	}
	for span, d := range want {
		if b.Self[span] != d {
			t.Errorf("self[%s] = %v, want %v", span, b.Self[span], d)
		}
	}
	total := b.Pre + b.Tail
	for _, d := range b.Self {
		total += d
	}
	if total != 25*ms {
		t.Errorf("pre + self + tail = %v, want the job's 25ms", total)
	}
	if b.Supersteps != 5 {
		t.Errorf("supersteps = %d, want 5 (the charged round is not simulated)", b.Supersteps)
	}
	wantSteps := []time.Duration{3 * ms, 4 * ms, 11 * ms, 1 * ms}
	if len(b.Steps) != len(wantSteps) {
		t.Fatalf("steps = %v, want %v", b.Steps, wantSteps)
	}
	for i := range wantSteps {
		if b.Steps[i] != wantSteps[i] {
			t.Errorf("steps = %v, want %v", b.Steps, wantSteps)
			break
		}
	}
}

func TestAttributeWithoutSupersteps(t *testing.T) {
	b := attribute(nil, 7*time.Millisecond)
	if b.Pre != 7*time.Millisecond || b.Tail != 0 || len(b.Self) != 0 || b.Supersteps != 0 {
		t.Errorf("attribute(nil) = %+v; want the whole job as pre", b)
	}
}

func TestTwinOverhead(t *testing.T) {
	overhead, ns := twinOverhead(3.5, 1.5, 4_000_000)
	if overhead != 2 || ns != 500 {
		t.Errorf("twinOverhead(3.5, 1.5, 4e6) = %v s, %v ns/word; want 2 s, 500 ns/word", overhead, ns)
	}
	if _, ns := twinOverhead(1, 1, 0); ns != 0 {
		t.Errorf("ns/word without words = %v, want 0", ns)
	}
}

func TestLifecycleTimes(t *testing.T) {
	ms := time.Millisecond
	l := &lifeClock{lines: []lifeLine{
		{1 * ms, []byte(`{"schema":"mprs-lifecycle/1","workers":2,"heartbeat_ms":10000,"max_restarts":0}` + "\n")},
		{2 * ms, []byte(`{"seq":1,"kind":"start","worker":0,"round":0}` + "\n")},
		{3 * ms, []byte(`{"seq":2,"kind":"start","worker":1,"round":0}` + "\n")},
		{90 * ms, []byte(`{"seq":3,"kind":"result","worker":1,"round":96}` + "\n")},
		{94 * ms, []byte(`{"seq":4,"kind":"result","worker":0,"round":96}` + "\n")},
		{95 * ms, []byte(`{"seq":5,"kind":"done","worker":0,"round":96}` + "\n")},
	}}
	ft, err := l.times(100 * ms)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Spawn != 3*ms || ft.ResultSkew != 4*ms || ft.Tail != 6*ms || ft.Restarts != 0 {
		t.Errorf("times = %+v; want spawn 3ms, skew 4ms, tail 6ms, 0 restarts", ft)
	}
	l.lines = l.lines[:3]
	if _, err := l.times(100 * ms); err == nil {
		t.Error("a stream without results: want an error")
	}
}
