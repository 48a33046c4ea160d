package superstep

import (
	"context"
	"errors"
	"math"
	"testing"
	"unsafe"

	"github.com/rulingset/mprs/internal/trace"
)

// node is the minimal adapter context the tests drive the engine with.
type node struct {
	id int
	s  Ctx
}

func newEngine(t *testing.T, cfg Config[node, Tally]) *Engine[node, Tally] {
	t.Helper()
	var e *Engine[node, Tally]
	cfg.Bind = func(x *node, id int) *Ctx {
		x.id = id
		return &x.s
	}
	cfg.Stats = func() Tally { return e.T }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func noBudget(*Round) error { return nil }

// TestStableSortBySrcTotalOrder pins the tie-breaking contract directly:
// sorting a destination box with duplicate sender ids orders by ascending
// src while preserving each sender's send sequence (stability). A non-stable
// sort would scramble the within-src order and break the canonical delivery
// order the simulators promise.
func TestStableSortBySrcTotalOrder(t *testing.T) {
	// Three senders' messages interleaved out of src order, each sender's
	// payloads numbered in its own send sequence.
	box := []Message{
		{Src: 2, Payload: []uint64{20}},
		{Src: 0, Payload: []uint64{0}},
		{Src: 2, Payload: []uint64{21}},
		{Src: 1, Payload: []uint64{10}},
		{Src: 0, Payload: []uint64{1}},
		{Src: 1, Payload: []uint64{11}},
		{Src: 0, Payload: []uint64{2}},
	}
	stableSortBySrc(box)
	want := []uint64{0, 1, 2, 10, 11, 20, 21}
	for i, msg := range box {
		if msg.Payload[0] != want[i] {
			t.Fatalf("position %d: got payload %d, want %d (box %v)", i, msg.Payload[0], want[i], box)
		}
	}
}

// TestChargeRounds: analytically charged rounds count in Rounds, the round
// log and the active span, emit one traffic-free charged event each, and
// check the context at their barrier like any step.
func TestChargeRounds(t *testing.T) {
	ring := trace.NewRing(16)
	e := newEngine(t, Config[node, Tally]{N: 2, Tracer: ring})
	e.Span("finish")
	if err := e.Charge("exp", 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Charge("none", -1); err != nil {
		t.Fatal(err)
	}
	if e.T.Rounds != 5 || len(e.T.Log) != 5 {
		t.Fatalf("rounds %d, log %d entries, want 5", e.T.Rounds, len(e.T.Log))
	}
	if len(e.T.Spans) != 1 || e.T.Spans[0].Span != "finish" || e.T.Spans[0].Rounds != 5 || e.T.Spans[0].Words != 0 {
		t.Fatalf("spans %+v", e.T.Spans)
	}
	for i, ev := range ring.Events() {
		if !ev.Charged || ev.Step != "exp" || ev.Round != i+1 || ev.Sent != nil || ev.Words != 0 {
			t.Fatalf("charged event %d = %+v", i, ev)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e = newEngine(t, Config[node, Tally]{N: 2, Model: "test", Context: ctx})
	err := e.Charge("exp", 2)
	var ce *CancelError[Tally]
	if !errors.Is(err, ErrCanceled) || !errors.As(err, &ce) || ce.Round != 0 || e.T.Rounds != 0 {
		t.Fatalf("canceled charge: err %v, rounds %d", err, e.T.Rounds)
	}
}

// TestSendRecordIs16Bytes: the send log's per-message record stays 16 bytes.
func TestSendRecordIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(sendRec{}); size != 16 {
		t.Fatalf("sendRec is %d bytes, want 16", size)
	}
}

// TestSendOwnedIsZeroCopy: an owned payload is delivered as the very slice
// that was sent, a Send payload as a copy, and both arrive in send order.
func TestSendOwnedIsZeroCopy(t *testing.T) {
	for _, par := range []int{1, 2} {
		owned := []uint64{7, 8, 9}
		copied := []uint64{1, 2}
		e := newEngine(t, Config[node, Tally]{N: 3, Parallelism: par})
		if err := e.Step("send", 1, func(x *node) {
			if x.id == 2 {
				x.s.Send(0, copied...)
				x.s.SendOwned(0, owned)
				x.s.Send(0, 3)
			}
		}, noBudget); err != nil {
			t.Fatal(err)
		}
		box := e.Drain(0)
		if len(box) != 3 || box[0].Payload[1] != 2 || box[1].Payload[2] != 9 || box[2].Payload[0] != 3 {
			t.Fatalf("parallelism %d: box %v", par, box)
		}
		if &box[1].Payload[0] != &owned[0] {
			t.Errorf("parallelism %d: owned payload was copied", par)
		}
		if &box[0].Payload[0] == &copied[0] {
			t.Errorf("parallelism %d: Send payload was not copied", par)
		}
		if e.T.Words != 6 || e.T.Messages != 3 {
			t.Errorf("parallelism %d: metered %d words / %d messages, want 6 / 3", par, e.T.Words, e.T.Messages)
		}
	}
}

// TestSendLogReleasesOwnedPayloads: a reused send log drops its references
// to an earlier round's owned payloads when the next attempt starts.
func TestSendLogReleasesOwnedPayloads(t *testing.T) {
	e := newEngine(t, Config[node, Tally]{N: 2, Parallelism: 1})
	if err := e.Step("own", 1, func(x *node) { x.s.SendOwned(1-x.id, make([]uint64, 4)) }, noBudget); err != nil {
		t.Fatal(err)
	}
	if err := e.Step("quiet", 1, func(*node) {}, noBudget); err != nil {
		t.Fatal(err)
	}
	for _, lg := range e.logs {
		for i, p := range lg.owned[:cap(lg.owned)] {
			if p != nil {
				t.Fatalf("owned slot %d still pins %v", i, p)
			}
		}
	}
}

// TestSendOutsideIsMachineError: a destination outside the cluster panics
// inside the sender's closure and surfaces as its *MachineError.
func TestSendOutsideIsMachineError(t *testing.T) {
	e := newEngine(t, Config[node, Tally]{N: 3, Model: "test", Noun: "node"})
	err := e.Step("bad", 1, func(x *node) {
		if x.id == 1 {
			x.s.SendOwned(-1, nil)
		}
	}, noBudget)
	var me *MachineError
	if !errors.As(err, &me) || me.Machine != 1 || e.T.Rounds != 0 {
		t.Fatalf("err = %v, rounds %d", err, e.T.Rounds)
	}
}

// TestMeterErrorDeliversNothing: a budget error from the model commits the
// round's statistics but no message.
func TestMeterErrorDeliversNothing(t *testing.T) {
	e := newEngine(t, Config[node, Tally]{N: 2})
	boom := errors.New("over budget")
	err := e.Step("burst", 1, func(x *node) { x.s.Send(1-x.id, 1) }, func(r *Round) error {
		if e.T.Rounds != 1 || r.Sent[0] != 1 || r.Recv[1] != 1 {
			t.Errorf("measured round %+v", r)
		}
		return boom
	})
	if err != boom || e.T.Rounds != 1 || e.T.Words != 2 {
		t.Fatalf("err = %v, rounds %d, words %d", err, e.T.Rounds, e.T.Words)
	}
	if b0, b1 := e.Drain(0), e.Drain(1); len(b0) != 0 || len(b1) != 0 {
		t.Fatalf("aborted round delivered %v / %v", b0, b1)
	}
}

// TestNewValidatesConfig: the engine refuses participant counts its int32
// send records cannot address, and a negative parallelism, before it
// allocates anything.
func TestNewValidatesConfig(t *testing.T) {
	for _, cfg := range []Config[node, Tally]{
		{N: 0},
		{N: math.MaxInt32 + 1},
		{N: 4, Parallelism: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted", cfg)
		}
	}
}
