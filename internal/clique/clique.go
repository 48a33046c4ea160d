// Package clique simulates the congested clique model — the distributed
// model in which the sample-and-sparsify ruling-set algorithms (and their
// derandomizations) were originally developed, and to which near-linear-
// memory MPC is equivalent up to constants.
//
// There are n nodes, one per graph vertex; every node initially knows its
// own incident edges. Computation proceeds in synchronous rounds: in each
// round every ORDERED PAIR of nodes may exchange at most PairWords machine
// words (one word models the O(log n)-bit messages of the model). So a node
// may receive up to n−1 words per round — the all-to-all "congested" power
// that makes O(1)-round collectives possible — but may not shove a large
// payload down a single pair link.
//
// Lenzen's routing theorem (any communication pattern where every node sends
// and receives at most n messages can be scheduled in O(1) rounds) is
// exposed as RouteStep: per-node budgets of n·PairWords words instead of
// per-pair budgets, charged as LenzenRounds rounds.
//
// As in the mpc package, accounting (rounds, words, budget violations) is
// the point: the quantities the theory bounds are metered on every run, and
// execution is deterministic regardless of goroutine scheduling.
package clique

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/superstep"
	"github.com/rulingset/mprs/internal/trace"
)

// LenzenRounds is the constant number of rounds charged for one Lenzen
// routing step (the theorem's constant; 2 matches the standard statement's
// small constant without claiming tightness).
const LenzenRounds = 2

// Config describes a simulated congested clique.
type Config struct {
	// PairWords is the per-ordered-pair per-round bandwidth in words;
	// default 1 (one O(log n)-bit message).
	PairWords int
	// Strict makes violations errors instead of recorded statistics. A
	// strict violation aborts the offending round cleanly: it is recorded,
	// and nothing is delivered.
	Strict bool
	// Faults, when non-nil and enabled, injects the same deterministic
	// fault schedule as the MPC simulator (see mpc.FaultPlan): node crashes
	// abort and re-execute the round from the barrier-committed state,
	// message drops are retransmitted, duplicates deduplicated, stragglers
	// stall the barrier — all recovered, so delivered inboxes (and the
	// algorithm's output) stay bit-identical to the fault-free run, with the
	// robustness cost metered in the fault fields of Stats.
	Faults *mpc.FaultPlan
	// Tracer, when non-nil, receives one trace.Event per committed round
	// (per-node words sent/received, recovery activity). Deterministic; costs
	// nothing when nil.
	Tracer trace.Tracer
	// Context, when non-nil, is checked at every round barrier: once it is
	// done, Step/RouteStep return a *CancelError wrapping mpc.ErrCanceled or
	// mpc.ErrDeadline with the committed round and full Stats. The round in
	// flight always runs to its barrier, so cancellation never leaks a
	// goroutine or tears state.
	Context context.Context
	// Transport, when non-nil, carries every committed round's sorted
	// per-destination message boxes, exactly as in the MPC simulator (the
	// shared mpc.Transport interface; Message is an alias of mpc.Message, so
	// one transport implementation serves both simulators). nil is the
	// in-memory router. A failed exchange aborts the round cleanly with a
	// *TransportError.
	Transport mpc.Transport
	// Parallelism bounds the worker pool executing node step closures within
	// one round: 0 (the default) means GOMAXPROCS, 1 forces the serial
	// reference path (every node runs on the calling goroutine, in node
	// order). Outputs, Stats and traces are bit-identical at every level.
	Parallelism int
}

// Violation records a bandwidth breach.
type Violation struct {
	Round int
	Src   int
	Dst   int // -1 for per-node budget breaches
	Kind  string
	Words int
	Limit int
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Dst >= 0 {
		return fmt.Sprintf("round %d: pair (%d→%d) carried %d words > %d", v.Round, v.Src, v.Dst, v.Words, v.Limit)
	}
	return fmt.Sprintf("round %d: node %d %s %d words > %d", v.Round, v.Src, v.Kind, v.Words, v.Limit)
}

// Stats aggregates model measurements of a simulation. As in the mpc
// package, Rounds/Messages/Words count only committed rounds and delivered
// traffic (bit-identical to the fault-free run); recovery overhead is
// metered separately in the fault fields.
type Stats struct {
	Rounds     int
	Messages   int64
	Words      int64
	PeakRecv   int // max words received by one node in one round
	Violations []Violation

	// Spans aggregates rounds/traffic/skew per named trace span (algorithm
	// phase), in order of first appearance (see Cluster.Span). The per-span
	// schema is shared with the MPC simulator.
	Spans []mpc.SpanStat
	// SkewSent and SkewRecv are the worst per-round imbalance ratios across
	// nodes: max words sent (received) by one node divided by the round mean.
	SkewSent float64
	SkewRecv float64
	// GiniSent and GiniRecv are the worst per-round Gini imbalance
	// coefficients across nodes (see trace.Gini).
	GiniSent float64
	GiniRecv float64

	// RecoveredCrashes counts injected node crashes recovered at the barrier.
	RecoveredCrashes int
	// RecoveryRounds counts extra rounds spent on crash re-execution and
	// drop retransmission.
	RecoveryRounds int
	// ReplayedWords counts words re-sent during recovery.
	ReplayedWords int64
	// DroppedMessages counts transit losses repaired by retransmission.
	DroppedMessages int
	// DupMessages counts transit duplicates removed by receiver dedup.
	DupMessages int
	// StallRounds counts barrier rounds lost to straggler stalls.
	StallRounds int
}

// ErrBandwidth is wrapped by errors returned in Strict mode.
var ErrBandwidth = errors.New("clique: bandwidth budget exceeded")

// Message is a payload received from node Src. It is an alias of
// mpc.Message so both simulators share one message shape — and therefore one
// Transport implementation (see Config.Transport).
type Message = mpc.Message

// CancelError reports a clique run stopped at a round barrier by its
// context, with the committed round and full Stats. It wraps
// mpc.ErrCanceled or mpc.ErrDeadline (the sentinels are shared, so one
// errors.Is works for both simulators) and the context's own cause.
type CancelError = superstep.CancelError[Stats]

// TransportError reports a round whose message exchange failed (the
// clique-model counterpart of mpc.TransportError, carrying clique Stats).
// The round was not committed and nothing was delivered.
type TransportError = superstep.TransportError[Stats]

// Cluster is a simulated congested clique on n nodes: a superstep engine
// plus the per-pair and Lenzen-routing bandwidth budgets.
type Cluster struct {
	cfg        Config
	n          int
	e          *superstep.Engine[Ctx, Stats]
	violations []Violation
}

// NewCluster creates an n-node congested clique.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if cfg.PairWords == 0 {
		cfg.PairWords = 1
	}
	if cfg.PairWords < 0 {
		return nil, fmt.Errorf("clique: pair bandwidth %d < 0", cfg.PairWords)
	}
	c := &Cluster{cfg: cfg, n: n}
	var err error
	c.e, err = superstep.New(superstep.Config[Ctx, Stats]{
		Model:       "clique",
		Noun:        "node",
		N:           n,
		Parallelism: cfg.Parallelism,
		Faults:      cfg.Faults,
		Transport:   cfg.Transport,
		Tracer:      cfg.Tracer,
		Context:     cfg.Context,
		Bind: func(x *Ctx, v int) *superstep.Ctx {
			x.Node = v
			return &x.s
		},
		Stats: c.Stats,
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Span sets the active trace-span label; subsequent rounds are attributed to
// it in Stats.Spans and emitted trace events (same labels as the MPC
// simulator: "sparsify", "seed-search", "gather", "finish"; default "setup").
// A tracer implementing trace.SpanObserver is notified immediately. Safe to
// call concurrently with a running step, which keeps its old label.
func (c *Cluster) Span(name string) { c.e.Span(name) }

// CurrentSpan returns the active trace-span label.
func (c *Cluster) CurrentSpan() string { return c.e.CurrentSpan() }

// N returns the node count.
func (c *Cluster) N() int { return c.n }

// Config returns the configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cluster) Stats() Stats {
	t := &c.e.T
	return Stats{
		Rounds:           t.Rounds,
		Messages:         t.Messages,
		Words:            t.Words,
		PeakRecv:         t.PeakRecv,
		Violations:       append([]Violation(nil), c.violations...),
		Spans:            append([]mpc.SpanStat(nil), t.Spans...),
		SkewSent:         t.SkewSent,
		SkewRecv:         t.SkewRecv,
		GiniSent:         t.GiniSent,
		GiniRecv:         t.GiniRecv,
		RecoveredCrashes: t.RecoveredCrashes,
		RecoveryRounds:   t.RecoveryRounds,
		ReplayedWords:    t.ReplayedWords,
		DroppedMessages:  t.DroppedMessages,
		DupMessages:      t.DupMessages,
		StallRounds:      t.StallRounds,
	}
}

// Ctx is one node's view within a step.
//
// A Ctx is valid only for the duration of its step: once the step commits
// (or aborts) the context is invalidated, and late Send calls are dropped
// and surfaced as an error (wrapping mpc.ErrStaleCtx) from the next step,
// instead of corrupting the next round's traffic.
type Ctx struct {
	Node int

	s superstep.Ctx
}

// Inbox returns the messages delivered at the end of the previous step,
// ordered by sender.
func (x *Ctx) Inbox() []Message { return x.s.Inbox() }

// Send queues payload words to node dst for delivery at the end of the
// step. The payload is copied. A destination outside the clique panics,
// which the step surfaces as the node's *mpc.MachineError.
func (x *Ctx) Send(dst int, payload ...uint64) { x.s.Send(dst, payload...) }

// Step executes one synchronous round under the per-pair bandwidth budget.
func (c *Cluster) Step(name string, f func(x *Ctx)) error {
	return c.e.Step(name, 1, f, c.meterPairs)
}

// RouteStep executes one Lenzen-routed exchange: per-node send/receive
// budgets of n·PairWords words, charged as LenzenRounds rounds.
func (c *Cluster) RouteStep(name string, f func(x *Ctx)) error {
	return c.e.Step(name, LenzenRounds, f, c.meterRouted)
}

func (c *Cluster) meterPairs(r *superstep.Round) error  { return c.meter(r, false) }
func (c *Cluster) meterRouted(r *superstep.Round) error { return c.meter(r, true) }

// meter checks a measured round's bandwidth. For every destination in node
// order: each sender's words on the pair link (unless routed), then the
// node's received words against n·PairWords; a routed round then checks
// every node's sent words against the same budget.
func (c *Cluster) meter(r *superstep.Round, routed bool) error {
	var first error
	note := func(v Violation) {
		if err := c.violate(v); err != nil && first == nil {
			first = err
		}
	}
	limit := c.n * c.cfg.PairWords
	for dst, box := range r.Boxes {
		if !routed {
			pair, prev := 0, -1
			for _, msg := range box {
				if msg.Src != prev {
					pair, prev = 0, msg.Src
				}
				pair += len(msg.Payload)
				if pair > c.cfg.PairWords {
					note(Violation{Round: c.e.T.Rounds, Src: msg.Src, Dst: dst, Kind: "pair", Words: pair, Limit: c.cfg.PairWords})
					pair = -1 << 30 // flag once per pair per round
				}
			}
		}
		if recv := r.Recv[dst]; recv > limit {
			note(Violation{Round: c.e.T.Rounds, Src: dst, Dst: -1, Kind: "received", Words: recv, Limit: limit})
		}
	}
	if routed {
		for v, sent := range r.Sent {
			if sent > limit {
				note(Violation{Round: c.e.T.Rounds, Src: v, Dst: -1, Kind: "routed", Words: sent, Limit: limit})
			}
		}
	}
	return first
}

func (c *Cluster) violate(v Violation) error {
	c.violations = append(c.violations, v)
	if c.cfg.Strict {
		return fmt.Errorf("%w: %s", ErrBandwidth, v)
	}
	return nil
}

// Drain empties and returns node v's inbox — the node-local consumption of
// delivered messages between steps.
func (c *Cluster) Drain(v int) []Message {
	return c.e.Drain(v)
}

// SumToZero has every node contribute one word, summed at node 0 in one
// round (each contribution travels a distinct pair link). Returns the sum.
func (c *Cluster) SumToZero(name string, local func(v int) uint64) (uint64, error) {
	return c.reduceToZero(name, local, func(a, b uint64) uint64 { return a + b })
}

// MaxToZero is SumToZero with max instead of sum.
func (c *Cluster) MaxToZero(name string, local func(v int) uint64) (uint64, error) {
	return c.reduceToZero(name, local, func(a, b uint64) uint64 { return max(a, b) })
}

// reduceToZero sends every node's word to node 0 in one round and folds
// the delivered words, in sender order, with op from 0.
func (c *Cluster) reduceToZero(name string, local func(v int) uint64, op func(a, b uint64) uint64) (uint64, error) {
	if err := c.Step(name, func(x *Ctx) {
		x.Send(0, local(x.Node))
	}); err != nil {
		return 0, err
	}
	var acc uint64
	for _, msg := range c.Drain(0) {
		for _, w := range msg.Payload {
			acc = op(acc, w)
		}
	}
	return acc, nil
}

// BroadcastWord has node 0 send one word to every node in one round.
func (c *Cluster) BroadcastWord(name string, word uint64) error {
	if err := c.Step(name, func(x *Ctx) {
		if x.Node != 0 {
			return
		}
		for dst := 1; dst < c.n; dst++ {
			x.Send(dst, word)
		}
	}); err != nil {
		return err
	}
	for v := 1; v < c.n; v++ {
		c.e.Drain(v)
	}
	return nil
}

// ScatterAggregateFloat is the congested clique's O(1)-round vector
// reduction: every node holds nExt float64 values (nExt <= n); coordinate e
// is summed at aggregator node e — every contribution rides a distinct pair
// link as a single word (its IEEE-754 bit pattern) — and the aggregated
// vector is collected at node 0, each aggregator's sum again one word on its
// own link. Two rounds total, independent of nExt.
//
// This primitive is what makes a conditional-expectation chunk O(1) rounds
// in the clique for any chunk width up to log₂ n — the collective the MPC
// simulator must pay ⌈·⌉ gathers for.
//
// local fills all nExt contributions of node v at once into out, which
// arrives zeroed; out is scratch owned by the worker running v and is reused
// for its next node, so local must not retain it.
func (c *Cluster) ScatterAggregateFloat(name string, nExt int, local func(v int, out []float64)) ([]float64, error) {
	if nExt > c.n {
		return nil, fmt.Errorf("clique: %d extensions exceed scatter capacity n=%d", nExt, c.n)
	}
	if err := c.Step(name+"/scatter", func(x *Ctx) {
		out := x.s.Scratch(nExt)
		local(x.Node, out)
		x.s.SendFloats(out)
	}); err != nil {
		return nil, err
	}
	partial := make([]float64, nExt)
	for agg := 0; agg < nExt; agg++ {
		for _, msg := range c.Drain(agg) {
			for _, w := range msg.Payload {
				partial[agg] += math.Float64frombits(w)
			}
		}
	}
	if err := c.Step(name+"/collect", func(x *Ctx) {
		if x.Node < nExt {
			x.Send(0, math.Float64bits(partial[x.Node]))
		}
	}); err != nil {
		return nil, err
	}
	sums := make([]float64, nExt)
	for _, msg := range c.Drain(0) {
		if msg.Src < nExt && len(msg.Payload) == 1 {
			sums[msg.Src] = math.Float64frombits(msg.Payload[0])
		}
	}
	return sums, nil
}
