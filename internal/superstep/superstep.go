// Package superstep is the synchronous-round engine both simulators run on:
// the MPC cluster (internal/mpc) and the congested clique (internal/clique)
// are thin adapters that add their model's budgets to it.
//
// One Step runs a closure on every participant (machine or node) through a
// bounded worker pool, seals the round's sends at the barrier, lays them out
// as per-destination boxes in the canonical (sender, send order) sequence,
// hands the boxes to the configured Transport, meters the round (traffic,
// skew, spans, fault recovery), lets the model check its budgets, emits one
// trace event and delivers. Every output is bit-identical at every
// parallelism level (DESIGN.md §8).
//
// The engine recovers the faults of a Faults schedule at the barrier: a
// crashed participant aborts the attempt, which re-executes; drops and
// duplicates are charged, never delivered. Its counters live in Tally; the
// adapters assemble their Stats from it.
package superstep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/rulingset/mprs/internal/trace"
)

// Message is a payload of machine words received from Src.
type Message struct {
	Src     int
	Payload []uint64
}

// Transport hooks the message exchange. At every committed Step, after the
// per-destination boxes have been laid out in the canonical order (sender
// ascending, per-sender send order intact), the engine hands all boxes to
// the transport and delivers whatever it returns. The nil transport is the
// in-memory router: boxes are delivered as-is inside this address space.
//
// A transport implementation must preserve the delivery contract exactly —
// the returned slice has one box per destination, each box sorted by sender
// with per-sender send order intact, and message payloads word-identical to
// what was sent. Everything downstream (fault accounting, budget metering,
// skew statistics, trace events) runs on the returned boxes, so a conforming
// transport is invisible in every deterministic output: that is the
// cross-backend bit-identity contract the multi-process backend is tested
// against.
//
// round is the model round about to commit (the value Stats.Rounds will take
// once a one-round step commits). Charged rounds and multi-round steps create
// gaps in the sequence of exchanged rounds, but the sequence itself is
// deterministic, so distributed implementations may key their wire frames by
// it.
//
// Exchange is called from the barrier (single-goroutine) phase of Step; it
// never races with participant code.
type Transport interface {
	Exchange(round int, boxes [][]Message) ([][]Message, error)
}

// Faults is the deterministic fault schedule the engine consults
// (*mpc.FaultPlan). Every decision is a pure function of its arguments.
type Faults interface {
	Enabled() bool
	CrashesAt(round, id int) bool
	StallsAt(round, id int) bool
	DropsMessage(round, src, dst, seq int) bool
	DupsMessage(round, src, dst, seq int) bool
}

// RoundInfo summarizes one communication round.
type RoundInfo struct {
	Name     string
	Span     string // algorithm phase annotation active during the round
	MaxSent  int    // max words sent by any participant this round
	MaxRecv  int    // max words received by any participant this round
	Messages int
	Words    int
	// GiniSent and GiniRecv are the round's communication-imbalance
	// coefficients across participants (0 balanced, →1 one carries all).
	GiniSent float64
	GiniRecv float64
}

// SpanStat aggregates the rounds of one named trace span (algorithm phase):
// how many rounds it spent, how much traffic it moved, and how skewed that
// traffic was across participants. The skew quantities are what the
// sparsification theorems shape: concentration phases should show high
// imbalance (gather-like traffic), local phases should stay near-balanced.
type SpanStat struct {
	Span     string
	Rounds   int
	Messages int64
	Words    int64
	// MaxSent and MaxRecv are the largest per-participant per-round word
	// counts observed inside the span.
	MaxSent int
	MaxRecv int
	// GiniSent and GiniRecv are the worst per-round imbalance coefficients
	// observed inside the span.
	GiniSent float64
	GiniRecv float64
}

// Tally is the model-independent part of a simulator's statistics; the
// field meanings are those of mpc.Stats. Rounds and traffic count only
// committed rounds and delivered messages, recovery overhead accumulates in
// the fault fields.
type Tally struct {
	Rounds   int
	Messages int64
	Words    int64
	PeakSent int
	PeakRecv int
	Log      []RoundInfo
	Spans    []SpanStat
	SkewSent float64
	SkewRecv float64
	GiniSent float64
	GiniRecv float64

	RecoveredCrashes int
	RecoveryRounds   int
	ReplayedWords    int64
	DroppedMessages  int
	DupMessages      int
	StallRounds      int
}

// Round is one measured round, handed to the model's budget check before
// it commits; T.Rounds already counts it.
type Round struct {
	// Boxes are the delivered boxes, indexed by destination.
	Boxes [][]Message
	// Sent and Recv are the words each participant sent and received.
	Sent, Recv []int
	Info       RoundInfo
}

// Config wires an engine to its model adapter. C is the adapter's step
// context type and S its Stats type.
type Config[C, S any] struct {
	// Model and Noun name the simulator and its participants in errors
	// ("mpc", "machine").
	Model, Noun string
	// N is the participant count (>= 1).
	N int
	// Parallelism bounds the worker pool: 0 means GOMAXPROCS, 1 runs every
	// participant inline on the calling goroutine, in id order.
	Parallelism int
	Faults      Faults // nil or disabled: fault-free
	Transport   Transport
	Tracer      trace.Tracer
	// Context, when non-nil, is checked at every barrier (see CancelError).
	Context context.Context

	// Bind initializes participant id's context for one attempt and returns
	// its engine part.
	Bind func(x *C, id int) *Ctx
	// Stats snapshots the adapter's statistics for barrier errors.
	Stats func() S
	// Begin, when non-nil, runs at every step barrier before the first
	// attempt; its error aborts the step.
	Begin func(round int) error
	// Settle, when non-nil, runs after every attempt. crashed lists the
	// participants the fault plan crashed, to restart (empty once the
	// attempt stands or a participant panicked); the result is the replay
	// distance in rounds and the restored words charged to the recovery
	// (default 1 and 0).
	Settle func(round int, crashed []int) (replay int, words int64)
	// Resident, when non-nil, supplies the per-participant resident memory
	// of each trace event.
	Resident func() []int
}

// Engine runs the synchronous rounds of one simulated cluster.
type Engine[C, S any] struct {
	// T is the engine's statistics. Adapters read it and never write it.
	T Tally

	cfg     Config[C, S]
	plane   plane
	inboxes [][]Message
	// fired records crash events already injected, so the re-executed round
	// does not crash again (a crash fires once per (round, id)).
	fired map[[2]int]struct{}

	// logs holds one send log per worker, reused across rounds and attempts;
	// each attempt reaches them only through fresh, sealable outbox
	// headers. boxStart is delivery scratch (N+1 entries).
	logs     []*sendLog
	boxStart []int
	// cores is attempt scratch: each participant's engine context.
	cores []*Ctx

	// span is the active label (atomic: drivers may switch spans while a
	// round's workers still run — each barrier pins the label once).
	// sentW, recvW and sortBuf are per-participant scratch, so metering
	// allocates nothing per round.
	span atomic.Pointer[string]
	// stepping is set from Begin to the last attempt's Settle.
	stepping atomic.Bool
	sentW    []int
	recvW    []int
	sortBuf  []int
}

// New builds an engine for cfg.N participants. It refuses more
// participants than a send record's int32 ids address, and a negative
// parallelism.
func New[C, S any](cfg Config[C, S]) (*Engine[C, S], error) {
	if cfg.N < 1 || cfg.N > math.MaxInt32 {
		return nil, fmt.Errorf("%s: %d %ss outside [1, %d]", cfg.Model, cfg.N, cfg.Noun, math.MaxInt32)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("%s: parallelism %d < 0", cfg.Model, cfg.Parallelism)
	}
	if cfg.Faults != nil && !cfg.Faults.Enabled() {
		cfg.Faults = nil // skip the per-message fault checks
	}
	e := &Engine[C, S]{
		cfg:      cfg,
		plane:    plane{n: cfg.N, model: cfg.Model, noun: cfg.Noun},
		inboxes:  make([][]Message, cfg.N),
		boxStart: make([]int, cfg.N+1),
		sentW:    make([]int, cfg.N),
		recvW:    make([]int, cfg.N),
		sortBuf:  make([]int, cfg.N),
		cores:    make([]*Ctx, cfg.N),
	}
	setup := "setup"
	e.span.Store(&setup)
	return e, nil
}

// Span sets the active trace-span label; subsequent rounds are attributed to
// it in Tally.Spans, the round log and emitted trace events. A tracer
// implementing trace.SpanObserver is notified immediately.
//
// Safe to call concurrently with a running step: the label is stored
// atomically and every barrier pins it once, so a mid-step switch attributes
// the in-flight round entirely to the old label.
func (e *Engine[C, S]) Span(name string) {
	e.span.Store(&name)
	if o, ok := e.cfg.Tracer.(trace.SpanObserver); ok {
		o.SpanChange(name)
	}
}

// CurrentSpan returns the active trace-span label.
func (e *Engine[C, S]) CurrentSpan() string { return *e.span.Load() }

// InStep reports whether a step is executing: its attempts run, or it
// recovers crashed participants between them. Safe to call from
// participant code.
func (e *Engine[C, S]) InStep() bool { return e.stepping.Load() }

// Drain empties and returns participant id's inbox.
func (e *Engine[C, S]) Drain(id int) []Message {
	box := e.inboxes[id]
	e.inboxes[id] = nil
	return box
}

// Charge accounts for k rounds modeled analytically rather than simulated:
// k rounds named name, with no traffic. A k <= 0 charges nothing; the
// barrier's cancellation check still runs.
func (e *Engine[C, S]) Charge(name string, k int) error {
	if err := e.canceled(); err != nil {
		return err
	}
	span := e.CurrentSpan()
	for i := 0; i < k; i++ {
		e.T.Rounds++
		info := RoundInfo{Name: name, Span: span}
		e.T.Log = append(e.T.Log, info)
		e.bumpSpan(info, 1)
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.Superstep(trace.Event{Round: e.T.Rounds, Step: name, Span: span, Charged: true})
		}
	}
	return nil
}

// Step executes one synchronous step charged as rounds model rounds: f runs
// on every participant (reading its inbox from the previous step and
// sending), then the sends are delivered. meter checks the model's budgets
// on the measured round; its error, like every other failure, aborts the
// step with nothing delivered.
//
//   - A panic in one participant's f is recovered at the barrier and
//     returned as the lowest panicking participant's *MachineError.
//   - Crashes injected by the fault schedule abort the attempt; Settle
//     restores the crashed participants and the step re-executes, with the
//     recovery charged to the fault counters. f must therefore be
//     effect-free on driver state (drivers mutate state after Step returns).
//   - Drops are retransmitted and duplicates removed, so delivered inboxes
//     are always exactly the sent messages; only the counters record them.
//   - A meter error (a strict budget violation) still commits the round's
//     statistics and trace event, but delivers nothing.
func (e *Engine[C, S]) Step(name string, rounds int, f func(*C), meter func(*Round) error) error {
	if err := e.plane.takeLate(); err != nil {
		return err
	}
	if err := e.canceled(); err != nil {
		return err
	}
	round := e.T.Rounds + 1
	// Pin the span label once per barrier: a driver switching spans while
	// workers still run attributes this round entirely to the old label.
	span := e.CurrentSpan()
	pre := e.T
	if e.cfg.Begin != nil {
		if err := e.cfg.Begin(round); err != nil {
			return err
		}
	}
	e.stepping.Store(true)
	var logs []*sendLog
	for {
		var crashed []int
		var merr *MachineError
		logs, crashed, merr = e.attempt(round, f)
		replay, words := 1, int64(0)
		if e.cfg.Settle != nil {
			replay, words = e.cfg.Settle(round, crashed)
		}
		e.stepping.Store(len(crashed) > 0)
		if merr != nil {
			return merr
		}
		if len(crashed) == 0 {
			break
		}
		// Crashed participants restart and the step re-executes
		// (participant computation is deterministic, so the retry reproduces
		// the fault-free messages exactly). The aborted attempt's sends are
		// discarded when the retry resets the logs; their words are replay.
		e.T.RecoveredCrashes += len(crashed)
		e.T.RecoveryRounds += replay
		e.T.ReplayedWords += words
		for _, lg := range logs {
			e.T.ReplayedWords += lg.sentWords()
		}
	}
	if p := e.cfg.Faults; p != nil {
		for id := 0; id < e.cfg.N; id++ {
			if p.StallsAt(round, id) {
				e.T.StallRounds++
			}
		}
	}

	// The canonical boxes are the exchange: a configured transport (the
	// multi-process backend) ships and verifies them here. A failed exchange
	// aborts before the round commits, so the carried Stats are exactly the
	// committed prefix.
	boxes := e.deliver(logs)
	if e.cfg.Transport != nil {
		exchanged, err := e.cfg.Transport.Exchange(round, boxes)
		if err != nil {
			return &TransportError[S]{Round: e.T.Rounds, Stats: e.cfg.Stats(), Err: err, model: e.cfg.Model}
		}
		boxes = exchanged
	}

	e.T.Rounds += rounds
	r := e.measure(round, boxes)
	r.Info.Name, r.Info.Span = name, span
	err := meter(&r)
	e.T.Log = append(e.T.Log, r.Info)
	e.bumpSpan(r.Info, rounds)
	if e.cfg.Tracer != nil {
		// Event slices are freshly allocated: sinks may retain them.
		ev := trace.Event{
			Round:          e.T.Rounds,
			Step:           name,
			Span:           span,
			Sent:           slices.Clone(e.sentW),
			Recv:           slices.Clone(e.recvW),
			Messages:       r.Info.Messages,
			Words:          r.Info.Words,
			MaxSent:        r.Info.MaxSent,
			MaxRecv:        r.Info.MaxRecv,
			GiniSent:       r.Info.GiniSent,
			GiniRecv:       r.Info.GiniRecv,
			Crashes:        e.T.RecoveredCrashes - pre.RecoveredCrashes,
			RecoveryRounds: e.T.RecoveryRounds - pre.RecoveryRounds,
			ReplayedWords:  e.T.ReplayedWords - pre.ReplayedWords,
			Dropped:        e.T.DroppedMessages - pre.DroppedMessages,
			Duplicated:     e.T.DupMessages - pre.DupMessages,
			Stalls:         e.T.StallRounds - pre.StallRounds,
		}
		if e.cfg.Resident != nil {
			ev.Resident = e.cfg.Resident()
		}
		e.cfg.Tracer.Superstep(ev)
	}
	if err != nil {
		return err
	}
	copy(e.inboxes, boxes)
	return nil
}

// measure meters the delivered boxes of round: per-participant words sent
// and received, the transport faults (decided on the canonical order, so
// schedule-independent), the round's maxima, Gini coefficients and skew,
// and the traffic totals.
func (e *Engine[C, S]) measure(round int, boxes [][]Message) Round {
	r := Round{Boxes: boxes, Sent: e.sentW, Recv: e.recvW}
	info := &r.Info
	clear(e.sentW)
	dropped := false
	for dst := range e.recvW {
		box := boxes[dst]
		recv := 0
		for _, msg := range box {
			n := len(msg.Payload)
			recv += n
			e.sentW[msg.Src] += n
		}
		if p := e.cfg.Faults; p != nil {
			seq, prevSrc := 0, -1
			for _, msg := range box {
				if msg.Src != prevSrc {
					seq, prevSrc = 0, msg.Src
				}
				if p.DropsMessage(round, msg.Src, dst, seq) {
					e.T.DroppedMessages++
					e.T.ReplayedWords += int64(len(msg.Payload))
					dropped = true
				}
				if p.DupsMessage(round, msg.Src, dst, seq) {
					e.T.DupMessages++
				}
				seq++
			}
		}
		e.recvW[dst] = recv
		info.Messages += len(box)
		info.Words += recv
		info.MaxRecv = max(info.MaxRecv, recv)
	}
	if dropped {
		e.T.RecoveryRounds++
	}
	for _, s := range e.sentW {
		info.MaxSent = max(info.MaxSent, s)
	}
	copy(e.sortBuf, e.sentW)
	info.GiniSent = trace.Gini(e.sortBuf)
	copy(e.sortBuf, e.recvW)
	info.GiniRecv = trace.Gini(e.sortBuf)
	if info.Words > 0 {
		mean := float64(info.Words) / float64(e.cfg.N)
		e.T.SkewSent = max(e.T.SkewSent, float64(info.MaxSent)/mean)
		e.T.SkewRecv = max(e.T.SkewRecv, float64(info.MaxRecv)/mean)
	}
	e.T.GiniSent = max(e.T.GiniSent, info.GiniSent)
	e.T.GiniRecv = max(e.T.GiniRecv, info.GiniRecv)
	e.T.PeakSent = max(e.T.PeakSent, info.MaxSent)
	e.T.PeakRecv = max(e.T.PeakRecv, info.MaxRecv)
	e.T.Messages += int64(info.Messages)
	e.T.Words += int64(info.Words)
	return r
}

// bumpSpan folds rounds committed rounds described by info into their span
// aggregate.
func (e *Engine[C, S]) bumpSpan(info RoundInfo, rounds int) {
	e.T.Spans = MergeSpans(e.T.Spans, []SpanStat{{
		Span:     info.Span,
		Rounds:   rounds,
		Messages: int64(info.Messages),
		Words:    int64(info.Words),
		MaxSent:  info.MaxSent,
		MaxRecv:  info.MaxRecv,
		GiniSent: info.GiniSent,
		GiniRecv: info.GiniRecv,
	}})
}

// MergeSpans folds b's span aggregates into a's, matching by name and
// preserving first-appearance order: rounds and traffic add up, maxima and
// imbalance coefficients take the maximum. The result never aliases b.
func MergeSpans(a, b []SpanStat) []SpanStat {
	for _, sp := range b {
		i := slices.IndexFunc(a, func(s SpanStat) bool { return s.Span == sp.Span })
		if i < 0 {
			a = append(a, sp)
			continue
		}
		m := &a[i]
		m.Rounds += sp.Rounds
		m.Messages += sp.Messages
		m.Words += sp.Words
		m.MaxSent = max(m.MaxSent, sp.MaxSent)
		m.MaxRecv = max(m.MaxRecv, sp.MaxRecv)
		m.GiniSent = max(m.GiniSent, sp.GiniSent)
		m.GiniRecv = max(m.GiniRecv, sp.GiniRecv)
	}
	return a
}

// crashNow consumes one injected crash for (round, id); a crash fires only
// once, so the re-execution after recovery does not crash again.
func (e *Engine[C, S]) crashNow(round, id int) bool {
	if e.cfg.Faults == nil || !e.cfg.Faults.CrashesAt(round, id) {
		return false
	}
	key := [2]int{round, id}
	if _, ok := e.fired[key]; ok {
		return false
	}
	if e.fired == nil {
		e.fired = make(map[[2]int]struct{})
	}
	e.fired[key] = struct{}{}
	return true
}

// attempt executes one attempt of a round: f runs on every non-crashed
// participant through a bounded worker pool over contiguous id blocks, with
// panics recovered per participant. Crash decisions (which consume
// once-only fault events) are taken sequentially before any worker starts.
// Each worker seals its outbox header and counts its sends per destination
// as soon as its block has run. It returns the workers' send logs in block
// order and either the lowest panicking participant's error or the crashed
// ids to restart.
func (e *Engine[C, S]) attempt(round int, f func(*C)) ([]*sendLog, []int, *MachineError) {
	n := e.cfg.N
	ctxs := make([]C, n)
	cores := e.cores[:n]
	defer clear(cores) // the contexts die with the attempt
	var crashed []int
	for id := range ctxs {
		x := e.cfg.Bind(&ctxs[id], id)
		*x = Ctx{id: id, round: round, inbox: e.inboxes[id]}
		cores[id] = x
		if e.crashNow(round, id) {
			x.crashed = true
			crashed = append(crashed, id)
		}
	}
	run := func(id int) {
		defer func() {
			if r := recover(); r != nil {
				cores[id].panicked = r
				cores[id].stack = debug.Stack()
			}
		}()
		f(&ctxs[id])
	}
	workers := e.cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	per := (n + workers - 1) / workers
	blocks := (n + per - 1) / per
	for len(e.logs) < blocks {
		e.logs = append(e.logs, &sendLog{})
	}
	logs := e.logs[:blocks]
	block := func(ob *outbox, lo, hi int) {
		// Deferred so the log is sealed and counted even if a closure ends
		// its goroutine with runtime.Goexit.
		defer ob.finish(n)
		for id := lo; id < hi; id++ {
			if !cores[id].crashed {
				run(id)
			}
		}
	}
	var wg sync.WaitGroup
	for w, lg := range logs {
		lo, hi := w*per, min((w+1)*per, n)
		lg.reset()
		ob := &outbox{log: lg, plane: &e.plane}
		for id := lo; id < hi; id++ {
			cores[id].ob = ob
		}
		if blocks == 1 {
			block(ob, lo, hi)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			block(ob, lo, hi)
		}()
	}
	wg.Wait()
	for id, x := range cores {
		if x.panicked != nil {
			return logs, nil, &MachineError{Machine: id, Round: round, Panic: x.panicked, Stack: x.stack}
		}
	}
	return logs, crashed, nil
}

// canceled checks the configured context at a barrier, returning a
// *CancelError once it is done.
func (e *Engine[C, S]) canceled() error {
	ctx := e.cfg.Context
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := context.Cause(ctx)
		sentinel := ErrCanceled
		if errors.Is(cause, context.DeadlineExceeded) {
			sentinel = ErrDeadline
		}
		return &CancelError[S]{Round: e.T.Rounds, Stats: e.cfg.Stats(), model: e.cfg.Model, sentinel: sentinel, cause: cause}
	default:
		return nil
	}
}

// The sentinels and MachineError keep the "mpc:" prefix they were
// introduced with: both simulators surface them, and package mpc re-exports
// them under their original names.
var (
	// ErrCanceled is wrapped by the error returned when the run's context
	// is canceled at a barrier.
	ErrCanceled = errors.New("mpc: run canceled")
	// ErrDeadline is wrapped instead when the context's deadline expired.
	ErrDeadline = errors.New("mpc: run deadline exceeded")
	// ErrStaleCtx is wrapped by the error recorded when a participant sends
	// on a context whose step has already completed (e.g. from a goroutine
	// leaked past the barrier).
	ErrStaleCtx = errors.New("mpc: send on invalidated step context")
)

// CancelError reports a run stopped at a barrier by its context. It wraps
// ErrCanceled or ErrDeadline (errors.Is selects which) and the context's own
// cause (so errors.Is(err, context.Canceled) works too). Nothing is
// interrupted mid-round: the current step's goroutines always run to the
// barrier, so cancellation never leaks a goroutine or tears driver state.
type CancelError[S any] struct {
	// Round is the number of committed rounds when the run stopped; no
	// partial round is reflected anywhere.
	Round int
	// Stats is the full accumulated statistics at the stop barrier.
	Stats S

	model    string
	sentinel error
	cause    error
}

// Error implements error.
func (e *CancelError[S]) Error() string {
	what := "run canceled"
	if e.sentinel == ErrDeadline {
		what = "run deadline exceeded"
	}
	return fmt.Sprintf("%s: %s after %d committed rounds: %v", e.model, what, e.Round, e.cause)
}

// Unwrap exposes both the sentinel and the context error.
func (e *CancelError[S]) Unwrap() []error { return []error{e.sentinel, e.cause} }

// TransportError reports a step whose message exchange failed — a peer
// worker died, a frame failed its checksum, or the supervisor ordered a
// stop. Like CancelError it is a barrier-clean failure: the round was not
// committed, nothing was delivered, and the carried Stats are a complete
// measurement of the work that did commit.
type TransportError[S any] struct {
	// Round is the number of committed rounds when the exchange failed.
	Round int
	// Stats is the full accumulated statistics at the failure barrier.
	Stats S
	// Err is the underlying transport failure.
	Err error

	model string
}

// Error implements error.
func (e *TransportError[S]) Error() string {
	return fmt.Sprintf("%s: transport failed after %d committed rounds: %v", e.model, e.Round, e.Err)
}

// Unwrap exposes the underlying transport failure.
func (e *TransportError[S]) Unwrap() error { return e.Err }

// MachineError is a panic from one participant's step function, recovered
// at the barrier so a single participant's bug surfaces as a structured
// error instead of taking down the whole simulated cluster. The failed step
// delivers nothing.
type MachineError struct {
	// Machine is the panicking participant (the lowest id when several
	// panic in the same step).
	Machine int
	// Round is the 1-based round at which the panic occurred.
	Round int
	// Panic is the recovered panic value.
	Panic any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *MachineError) Error() string {
	return fmt.Sprintf("mpc: machine %d panicked in round %d: %v", e.Machine, e.Round, e.Panic)
}
