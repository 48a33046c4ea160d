// Package mpc simulates the Massively Parallel Computation (MPC) model: M
// machines with S words of local memory each, communicating in synchronous
// rounds in which every machine sends and receives at most S words.
//
// The simulator is the substrate the reproduced paper assumes but that has no
// open-source implementation: it executes machine-local computation on a
// worker pool (sized by Config.Parallelism, default GOMAXPROCS), routes
// messages between rounds, and — crucially for a theory reproduction — meters
// the quantities the theorems bound: rounds, words sent/received per machine
// per round, and peak resident memory per machine, checking them against the
// regime's budget S.
//
// Execution is bit-for-bit deterministic regardless of goroutine scheduling
// and of the parallelism level: each worker buffers the sends of its
// contiguous machine block locally, the buffers are merged in fixed machine
// order at the superstep barrier, and every stat/violation reduction runs
// single-threaded at the barrier in machine order (see DESIGN.md §8,
// "Parallel commit discipline").
package mpc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/rulingset/mprs/internal/superstep"
	"github.com/rulingset/mprs/internal/trace"
)

// Regime selects how the per-machine memory budget S is derived from the
// input size.
type Regime int

const (
	// RegimeLinear models near-linear memory: S = Θ(n) words (strongest
	// machines; equivalent in power to the congested clique). This is the
	// regime of the paper's headline deterministic 2-ruling set result.
	RegimeLinear Regime = iota + 1
	// RegimeSublinear models strictly sublinear memory: S = ⌈n^ε⌉ words.
	RegimeSublinear
	// RegimeExplicit uses Config.MemoryWords verbatim.
	RegimeExplicit
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeLinear:
		return "linear"
	case RegimeSublinear:
		return "sublinear"
	case RegimeExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// Config describes a simulated cluster.
type Config struct {
	// Machines is the number of machines M (>= 1).
	Machines int
	// Regime selects the memory budget rule; default RegimeLinear.
	Regime Regime
	// Epsilon is the sublinear-memory exponent (0 < ε < 1); only used by
	// RegimeSublinear. Default 0.5.
	Epsilon float64
	// MemoryWords is the explicit budget S for RegimeExplicit.
	MemoryWords int
	// LinearSlack multiplies the linear-regime budget (S = slack·n); default 4,
	// standing in for the Θ̃(n) constants/log factors.
	LinearSlack int
	// Strict makes budget violations errors instead of recorded statistics.
	// A strict violation aborts the offending step cleanly: nothing is
	// delivered and the step's contexts are invalidated.
	Strict bool
	// Faults, when non-nil and enabled, injects the deterministic fault
	// schedule described in fault.go (machine crashes, message drops and
	// duplications, straggler stalls), all recovered at the superstep
	// barrier so outputs stay bit-identical to the fault-free run.
	Faults *FaultPlan
	// CheckpointEvery, together with a registered Checkpointer, snapshots
	// driver state every k supersteps; crash recovery then replays from the
	// last checkpoint and is charged accordingly. 0 disables checkpointing
	// (crashes recover from the barrier-committed state at replay cost 1).
	CheckpointEvery int
	// Tracer, when non-nil, receives one trace.Event per committed superstep
	// (per-machine words sent/received, resident memory, recovery activity).
	// Tracing is deterministic and costs nothing when nil.
	Tracer trace.Tracer
	// Context, when non-nil, is checked at every superstep barrier (Step and
	// ChargeRounds): once it is done, the call returns a *CancelError
	// wrapping ErrCanceled or ErrDeadline with the committed round and full
	// Stats. The step in flight always runs to its barrier, so cancellation
	// never leaks a goroutine or tears driver state.
	Context context.Context
	// Sink, when non-nil (together with CheckpointEvery > 0 and a registered
	// Checkpointer), persists every in-memory checkpoint durably; written
	// bytes accumulate in Stats.CheckpointBytes. *durable.Store is the
	// canonical implementation.
	Sink CheckpointSink
	// Resume, when non-nil, resumes the run from a durable checkpoint: the
	// run replays deterministically to Resume.Round, verifies the replayed
	// state against the checkpoint word-for-word (ErrResumeDiverged on
	// mismatch), restores through the Checkpointer, and records the replay
	// in Stats.ResumeReplayRounds.
	Resume *ResumeState
	// Transport, when non-nil, carries every committed superstep's sorted
	// per-destination message boxes (see the Transport interface); nil is
	// the in-memory router. A failed exchange aborts the step cleanly with
	// a *TransportError.
	Transport Transport
	// Parallelism bounds the worker pool executing machine step closures
	// within one superstep: 0 (the default) means GOMAXPROCS, 1 forces the
	// serial reference path (every machine runs on the calling goroutine, in
	// machine order). Outputs, Stats, traces and checkpoint bytes are
	// bit-identical at every level — parallelism is a throughput knob, never
	// a semantic one.
	Parallelism int
}

// Violation records a budget breach observed during the simulation.
type Violation struct {
	Round   int
	Machine int
	Kind    string // "send", "recv", "resident"
	Words   int
	Budget  int
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("round %d machine %d: %s %d words > budget %d",
		v.Round, v.Machine, v.Kind, v.Words, v.Budget)
}

// RoundInfo summarizes one communication round.
type RoundInfo = superstep.RoundInfo

// SpanStat aggregates the rounds of one named trace span (algorithm phase):
// how many rounds it spent, how much traffic it moved, and how skewed that
// traffic was across machines (see superstep.SpanStat).
type SpanStat = superstep.SpanStat

// Stats aggregates the model-relevant measurements of a simulation.
//
// The fault/recovery fields meter robustness cost separately from the
// algorithm's own complexity: Rounds and Words count only committed
// supersteps and delivered traffic (bit-identical to the fault-free run),
// while recovery overhead accumulates in RecoveryRounds, ReplayedWords and
// CheckpointWords. Total cost under faults is the sum of the two groups.
type Stats struct {
	Rounds       int
	Messages     int64
	Words        int64
	PeakSent     int // max words sent by one machine in one round
	PeakRecv     int
	PeakResident int
	Violations   []Violation
	Log          []RoundInfo

	// Spans aggregates rounds/traffic/skew per named trace span, in order of
	// first appearance (see Cluster.Span).
	Spans []SpanStat
	// SkewSent is the worst per-round send imbalance observed: max over
	// rounds with traffic of MaxSent / (Words/M), i.e. the straggler ratio
	// of the most loaded machine against the mean.
	SkewSent float64
	// SkewRecv is the receive-side counterpart of SkewSent.
	SkewRecv float64
	// GiniSent and GiniRecv are the worst per-round Gini imbalance
	// coefficients observed (see trace.Gini).
	GiniSent float64
	GiniRecv float64

	// RecoveredCrashes counts injected machine crashes recovered at the
	// superstep barrier.
	RecoveredCrashes int
	// RecoveryRounds counts extra rounds spent recovering: restart/replay
	// rounds after crashes plus one retransmission round per superstep with
	// dropped messages.
	RecoveryRounds int
	// ReplayedWords counts words re-sent or restored during recovery:
	// discarded superstep traffic, restored checkpoint state and
	// retransmitted messages.
	ReplayedWords int64
	// CheckpointWords counts words written by periodic state checkpoints.
	CheckpointWords int64
	// DroppedMessages counts transit losses repaired by retransmission.
	DroppedMessages int
	// DupMessages counts transit duplicates removed by receiver dedup.
	DupMessages int
	// StallRounds counts barrier rounds lost to straggler stalls.
	StallRounds int

	// CheckpointBytes counts bytes persisted to durable checkpoint storage
	// (Config.Sink); 0 without a sink. Like wall_ms in bench artifacts it is
	// host/run-dependent rather than part of the bit-identity contract: a
	// resumed run skips re-persisting checkpoints its directory already
	// holds, so its CheckpointBytes is lower than an uninterrupted run's.
	CheckpointBytes int64
	// ResumeReplayRounds counts supersteps deterministically replayed to
	// reach the durable checkpoint a resumed run restored from
	// (Config.Resume); 0 for a run started from scratch. Like
	// CheckpointBytes it is resume overhead, not algorithm cost.
	ResumeReplayRounds int
}

// ErrBudget is wrapped by errors returned in Strict mode when a budget is
// breached.
var ErrBudget = errors.New("mpc: memory/bandwidth budget exceeded")

// Message is a payload of machine words received from Src.
type Message = superstep.Message

// Transport hooks the superstep message exchange: at every committed Step
// the cluster hands all M canonical per-destination boxes to it and
// delivers whatever it returns (see superstep.Transport for the delivery
// contract). nil is the in-memory router.
type Transport = superstep.Transport

// MachineError is a panic from one machine's step function, recovered at the
// superstep barrier; the failed superstep delivers nothing.
type MachineError = superstep.MachineError

var (
	// ErrCanceled is wrapped by the error returned when the run's context is
	// canceled at a superstep barrier.
	ErrCanceled = superstep.ErrCanceled
	// ErrDeadline is wrapped instead when the context's deadline expired.
	ErrDeadline = superstep.ErrDeadline
	// ErrStaleCtx is wrapped by the error recorded when a machine sends on a
	// Ctx whose step has already completed (e.g. from a goroutine leaked
	// past the superstep barrier).
	ErrStaleCtx = superstep.ErrStaleCtx
)

// CancelError reports a run stopped by its context (see Config.Context),
// with the committed round and the full Stats at that barrier. It wraps
// ErrCanceled or ErrDeadline and the context's own cause.
type CancelError = superstep.CancelError[Stats]

// TransportError reports a superstep whose message exchange failed. The
// round was not committed, nothing was delivered, and the carried Stats
// measure exactly the committed prefix.
type TransportError = superstep.TransportError[Stats]

// Cluster is a simulated MPC cluster over a ground set of n items
// (vertices), block-partitioned across machines: a superstep engine plus
// the S-word budgets of the MPC model.
type Cluster struct {
	cfg    Config
	n      int
	per    int // block width of the partition: ⌈n/M⌉
	budget int
	e      *superstep.Engine[Ctx, Stats]
	// stats holds the model's own statistics (resident peaks, violations,
	// checkpoint costs); the engine's Tally holds the rest.
	stats Stats

	// mu guards resident-memory accounting, reachable from concurrent
	// machine code. While a step executes, resident-budget violations are
	// buffered per machine in pendingViol and flushed into stats.Violations
	// in machine order at the barrier, so their order is independent of
	// goroutine scheduling.
	mu          sync.Mutex
	resident    []int
	pendingViol [][]Violation

	// Superstep recovery state (see checkpoint.go).
	ckpt          Checkpointer
	snapshots     [][]uint64
	ckptRound     int
	resumeApplied bool
}

// NewCluster creates a cluster for a ground set of n items. The memory
// budget S is derived from cfg.Regime and n.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if n < 0 {
		return nil, fmt.Errorf("mpc: negative ground set %d", n)
	}
	if cfg.Regime == 0 {
		cfg.Regime = RegimeLinear
	}
	if cfg.LinearSlack <= 0 {
		cfg.LinearSlack = 4
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.5
	}
	var budget int
	switch cfg.Regime {
	case RegimeLinear:
		budget = cfg.LinearSlack * max(n, 1)
	case RegimeSublinear:
		if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
			return nil, fmt.Errorf("mpc: sublinear exponent %v out of (0,1)", cfg.Epsilon)
		}
		budget = int(math.Ceil(math.Pow(float64(max(n, 2)), cfg.Epsilon)))
	case RegimeExplicit:
		if cfg.MemoryWords < 1 {
			return nil, fmt.Errorf("mpc: explicit budget %d < 1", cfg.MemoryWords)
		}
		budget = cfg.MemoryWords
	default:
		return nil, fmt.Errorf("mpc: unknown regime %v", cfg.Regime)
	}
	if r := cfg.Resume; r != nil {
		if cfg.CheckpointEvery <= 0 {
			return nil, fmt.Errorf("mpc: Resume requires CheckpointEvery > 0 (checkpoint barriers must recur at the cadence the checkpoint was taken at)")
		}
		if r.Round < 0 {
			return nil, fmt.Errorf("mpc: Resume.Round %d < 0", r.Round)
		}
		if len(r.State) != cfg.Machines {
			return nil, fmt.Errorf("mpc: Resume state has %d machines, cluster has %d", len(r.State), cfg.Machines)
		}
	}
	c := &Cluster{cfg: cfg, n: n, budget: budget}
	var err error
	c.e, err = superstep.New(superstep.Config[Ctx, Stats]{
		Model:       "mpc",
		Noun:        "machine",
		N:           cfg.Machines,
		Parallelism: cfg.Parallelism,
		Faults:      cfg.Faults,
		Transport:   cfg.Transport,
		Tracer:      cfg.Tracer,
		Context:     cfg.Context,
		Bind: func(x *Ctx, m int) *superstep.Ctx {
			x.Machine = m
			x.Lo, x.Hi = c.Range(m)
			return &x.s
		},
		Stats:  c.Stats,
		Begin:  c.maybeCheckpoint,
		Settle: c.settle,
		Resident: func() []int {
			c.mu.Lock()
			defer c.mu.Unlock()
			return slices.Clone(c.resident)
		},
	})
	if err != nil {
		return nil, err
	}
	c.per = (n + cfg.Machines - 1) / cfg.Machines
	c.resident = make([]int, cfg.Machines)
	return c, nil
}

// Span sets the active trace-span label; subsequent rounds are attributed to
// it in Stats.Spans, the round log, and emitted trace events. Algorithms
// annotate their phases with the canonical labels "sparsify", "seed-search",
// "gather" and "finish"; rounds before the first Span call land in "setup".
// A tracer implementing trace.SpanObserver is notified immediately.
//
// Safe to call concurrently with a running step: a mid-step switch
// attributes the in-flight round entirely to the old label and takes effect
// from the next round.
func (c *Cluster) Span(name string) { c.e.Span(name) }

// CurrentSpan returns the active trace-span label (so helpers like the
// derandomizer can set a span and restore the caller's afterwards).
func (c *Cluster) CurrentSpan() string { return c.e.CurrentSpan() }

// Machines returns the machine count M.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// N returns the ground-set size the cluster was built for.
func (c *Cluster) N() int { return c.n }

// Budget returns the per-machine memory/bandwidth budget S in words.
func (c *Cluster) Budget() int { return c.budget }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Owner returns the machine owning item v under the block partition.
func (c *Cluster) Owner(v int) int {
	if c.n == 0 {
		return 0
	}
	return min(v/c.per, c.cfg.Machines-1)
}

// Range returns the half-open item range [lo, hi) owned by machine m.
func (c *Cluster) Range(m int) (lo, hi int) {
	return min(m*c.per, c.n), min(m*c.per+c.per, c.n)
}

// SetResident records machine m's current resident memory in words; the
// per-machine peak is tracked and checked against the budget. Safe to call
// from concurrent machine code inside a step.
func (c *Cluster) SetResident(m, words int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setResidentLocked(m, words)
}

func (c *Cluster) setResidentLocked(m, words int) error {
	c.resident[m] = words
	c.stats.PeakResident = max(c.stats.PeakResident, words)
	if words <= c.budget {
		return nil
	}
	v := Violation{Round: c.e.T.Rounds, Machine: m, Kind: "resident", Words: words, Budget: c.budget}
	if !c.e.InStep() {
		return c.violate(v)
	}
	// Concurrent machine code: buffer the violation per machine and flush in
	// machine order at the barrier. The strict error still surfaces to the
	// caller immediately.
	if c.pendingViol == nil {
		c.pendingViol = make([][]Violation, len(c.resident))
	}
	c.pendingViol[m] = append(c.pendingViol[m], v)
	if c.cfg.Strict {
		return fmt.Errorf("%w: %s", ErrBudget, v)
	}
	return nil
}

// AddResident adjusts machine m's resident memory by delta words. Safe to
// call from concurrent machine code inside a step.
func (c *Cluster) AddResident(m, delta int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setResidentLocked(m, c.resident[m]+delta)
}

// Resident returns machine m's currently recorded resident memory.
func (c *Cluster) Resident(m int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident[m]
}

func (c *Cluster) violate(v Violation) error {
	c.stats.Violations = append(c.stats.Violations, v)
	if c.cfg.Strict {
		return fmt.Errorf("%w: %s", ErrBudget, v)
	}
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (c *Cluster) Stats() Stats {
	t := &c.e.T
	out := c.stats
	out.Rounds = t.Rounds
	out.Messages = t.Messages
	out.Words = t.Words
	out.PeakSent = t.PeakSent
	out.PeakRecv = t.PeakRecv
	out.Violations = append([]Violation(nil), c.stats.Violations...)
	out.Log = append([]RoundInfo(nil), t.Log...)
	out.Spans = append([]SpanStat(nil), t.Spans...)
	out.SkewSent = t.SkewSent
	out.SkewRecv = t.SkewRecv
	out.GiniSent = t.GiniSent
	out.GiniRecv = t.GiniRecv
	out.RecoveredCrashes = t.RecoveredCrashes
	out.RecoveryRounds = t.RecoveryRounds
	out.ReplayedWords = t.ReplayedWords
	out.DroppedMessages = t.DroppedMessages
	out.DupMessages = t.DupMessages
	out.StallRounds = t.StallRounds
	return out
}

// ChargeRounds accounts for k rounds of a step that is modeled analytically
// rather than simulated message-by-message (e.g. standard graph
// exponentiation). It adds k rounds to the statistics under the given name
// with no bandwidth attributed.
//
// A negative k is a caller bug (it would silently under-count the model's
// central quantity): it is recorded as a "rounds" violation and, consistent
// with budget handling, returned as an error in Strict mode.
func (c *Cluster) ChargeRounds(name string, k int) error {
	if err := c.e.Charge(name, k); err != nil || k >= 0 {
		return err
	}
	return c.violate(Violation{Round: c.e.T.Rounds, Machine: -1, Kind: "rounds", Words: k})
}

// MergeStats accumulates b into a: rounds, traffic and violations add up,
// peaks and skew coefficients take the maximum, span aggregates merge by
// name, and b's per-round indices (violations, like the appended log) are
// offset by a's round count so merged stats read as one continuous run. Used
// when an algorithm chains sub-instances on fresh clusters (e.g. recursive
// β-ruling levels).
func MergeStats(a, b Stats) Stats {
	offset := a.Rounds
	a.Rounds += b.Rounds
	a.Messages += b.Messages
	a.Words += b.Words
	a.PeakSent = max(a.PeakSent, b.PeakSent)
	a.PeakRecv = max(a.PeakRecv, b.PeakRecv)
	a.PeakResident = max(a.PeakResident, b.PeakResident)
	for _, v := range b.Violations {
		v.Round += offset
		a.Violations = append(a.Violations, v)
	}
	a.Log = append(a.Log, b.Log...)
	a.Spans = superstep.MergeSpans(a.Spans, b.Spans)
	a.SkewSent = max(a.SkewSent, b.SkewSent)
	a.SkewRecv = max(a.SkewRecv, b.SkewRecv)
	a.GiniSent = max(a.GiniSent, b.GiniSent)
	a.GiniRecv = max(a.GiniRecv, b.GiniRecv)
	a.RecoveredCrashes += b.RecoveredCrashes
	a.RecoveryRounds += b.RecoveryRounds
	a.ReplayedWords += b.ReplayedWords
	a.CheckpointWords += b.CheckpointWords
	a.DroppedMessages += b.DroppedMessages
	a.DupMessages += b.DupMessages
	a.StallRounds += b.StallRounds
	a.CheckpointBytes += b.CheckpointBytes
	a.ResumeReplayRounds += b.ResumeReplayRounds
	return a
}

// Ctx is the per-machine view inside one Step: the machine id, its item
// range, the messages delivered at the end of the previous step, and a Send
// primitive for the current step.
//
// A Ctx is valid only for the duration of its step: once the step commits
// (or aborts), the context is invalidated and late Send calls are dropped
// and surfaced as ErrStaleCtx from the next Step, instead of corrupting the
// next round's traffic.
type Ctx struct {
	Machine int
	Lo, Hi  int

	s superstep.Ctx
}

// Inbox returns the messages delivered to this machine at the end of the
// previous step, ordered by sender id (and send order within a sender).
func (x *Ctx) Inbox() []Message { return x.s.Inbox() }

// Send queues a message of machine words to machine dst, delivered at the
// end of the step. The payload is copied.
func (x *Ctx) Send(dst int, payload ...uint64) { x.s.Send(dst, payload...) }

// SendOwned queues payload without copying; the caller must not reuse it.
func (x *Ctx) SendOwned(dst int, payload []uint64) { x.s.SendOwned(dst, payload) }

// Step executes one synchronous round: f runs concurrently on every machine
// (reading its inbox from the previous step and sending messages), then all
// messages are delivered. name labels the round in the trace log. A panic is
// returned as a *MachineError and injected faults are recovered, crashed
// machines through the Checkpointer (see superstep.Engine.Step); in Strict
// mode a budget violation aborts the step and nothing is delivered.
func (c *Cluster) Step(name string, f func(x *Ctx)) error {
	return c.e.Step(name, 1, f, c.meter)
}

// meter checks every machine's sent, then received, words of a measured
// round against S, in machine order.
func (c *Cluster) meter(r *superstep.Round) error {
	var first error
	for _, side := range [...]struct {
		kind  string
		words []int
	}{{"send", r.Sent}, {"recv", r.Recv}} {
		for m, w := range side.words {
			if w <= c.budget {
				continue
			}
			if err := c.violate(Violation{Round: c.e.T.Rounds, Machine: m, Kind: side.kind, Words: w, Budget: c.budget}); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
