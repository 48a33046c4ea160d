package main

import (
	"time"

	"github.com/rulingset/mprs/internal/trace"
)

// mark is one committed superstep as the benchmark's tracer saw it: when
// the barrier reached the tracer, measured from the call into the driver,
// and what the simulator reported about it.
type mark struct {
	At       time.Duration `json:"at_ns"`
	Span     string        `json:"span"`
	Step     string        `json:"step"`
	Charged  bool          `json:"charged,omitempty"`
	Messages int           `json:"messages"`
	Words    int           `json:"words"`
}

// recorder is a trace.Tracer that keeps every superstep in memory with its
// arrival time. Both simulators call Superstep from the committing goroutine
// only, after the machine goroutines have quiesced, so no lock is needed.
type recorder struct {
	t0    time.Time
	marks []mark
}

func newRecorder(capacity int) *recorder {
	return &recorder{marks: make([]mark, 0, capacity)}
}

// start resets the recorder's clock; call it right before the driver.
func (r *recorder) start() {
	r.marks = r.marks[:0]
	r.t0 = now()
}

// Superstep implements trace.Tracer.
func (r *recorder) Superstep(ev trace.Event) {
	r.marks = append(r.marks, mark{
		At:       now().Sub(r.t0),
		Span:     ev.Span,
		Step:     ev.Step,
		Charged:  ev.Charged,
		Messages: ev.Messages,
		Words:    ev.Words,
	})
}

// breakdown splits one traced job's wall time into the driver's phases.
type breakdown struct {
	// Pre runs from the call to the first barrier; Tail from the last
	// barrier to the return.
	Pre, Tail time.Duration
	// Self is each span's self time: the wall time between consecutive
	// barriers, attributed to the span of the superstep that closes the
	// interval. Pre + ΣSelf + Tail is the job's wall time exactly.
	Self map[string]time.Duration
	// Supersteps counts the simulated (not charged) supersteps; Steps holds
	// the barrier-to-barrier interval closed by each of them after the first
	// (whose interval is Pre), in commit order.
	Supersteps int
	Steps      []time.Duration
}

// attribute computes the breakdown of a job that returned at end (measured
// on the same clock as the marks).
func attribute(marks []mark, end time.Duration) breakdown {
	b := breakdown{Self: make(map[string]time.Duration)}
	if len(marks) == 0 {
		b.Pre = end
		return b
	}
	prev := time.Duration(0)
	for i, m := range marks {
		gap := m.At - prev
		prev = m.At
		if i == 0 {
			b.Pre = gap
		} else {
			b.Self[m.Span] += gap
		}
		if m.Charged {
			continue
		}
		b.Supersteps++
		if i > 0 {
			b.Steps = append(b.Steps, gap)
		}
	}
	b.Tail = end - prev
	return b
}
