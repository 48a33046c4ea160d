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
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/rulingset/mprs/internal/mpc"
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
	// Strict makes violations errors instead of recorded statistics.
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
	// mpc.ErrDeadline with the committed round and full Stats. See
	// RunContext.
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

// TransportError reports a round whose message exchange failed (see
// mpc.TransportError — this is the clique-model counterpart, carrying clique
// Stats). The round was not committed and nothing was delivered.
type TransportError struct {
	// Round is the number of committed rounds when the exchange failed.
	Round int
	// Stats is the full accumulated statistics at the failure barrier.
	Stats Stats
	// Err is the underlying transport failure.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("clique: transport failed after %d committed rounds: %v", e.Round, e.Err)
}

// Unwrap exposes the underlying transport failure.
func (e *TransportError) Unwrap() error { return e.Err }

// Cluster is a simulated congested clique on n nodes.
type Cluster struct {
	cfg     Config
	n       int
	stats   Stats
	inboxes [][]Message

	// mu guards the sticky late-send error; message sends never touch it
	// (each worker appends its block's sends to its own send log).
	mu      sync.Mutex
	lateErr error

	// logs holds one send log per worker, reused across rounds and attempts
	// (see sendLog); each attempt reaches them only through fresh, sealable
	// stepOutbox headers.
	logs []*sendLog
	// boxStart is reusable delivery scratch: boxStart[dst] is the offset of
	// dst's box in the round's message array (n+1 entries).
	boxStart []int

	// fired records crash events already injected, so the re-executed round
	// does not crash again (a fault fires once per (round, node)).
	fired map[[2]int]struct{}

	// Observability state: the registered tracer, the active span label
	// (atomic: drivers may switch spans while a round's workers still run —
	// each barrier pins the label once, see step), and reusable per-node
	// scratch buffers so skew accounting allocates nothing per round.
	tracer  trace.Tracer
	span    atomic.Pointer[string]
	sentW   []int
	recvW   []int
	sortBuf []int
}

// NewCluster creates an n-node congested clique.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("clique: n %d < 1", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("clique: n %d exceeds the %d nodes a send record can address", n, math.MaxInt32)
	}
	if cfg.PairWords == 0 {
		cfg.PairWords = 1
	}
	if cfg.PairWords < 0 {
		return nil, fmt.Errorf("clique: pair bandwidth %d < 0", cfg.PairWords)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("clique: parallelism %d < 0", cfg.Parallelism)
	}
	c := &Cluster{
		cfg:      cfg,
		n:        n,
		inboxes:  make([][]Message, n),
		tracer:   cfg.Tracer,
		sentW:    make([]int, n),
		recvW:    make([]int, n),
		sortBuf:  make([]int, n),
		boxStart: make([]int, n+1),
	}
	setup := "setup"
	c.span.Store(&setup)
	return c, nil
}

// parallelism resolves the configured worker-pool size: 0 means GOMAXPROCS.
func (c *Cluster) parallelism() int {
	if p := c.cfg.Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// SetTracer registers (or, with nil, removes) the round tracer.
func (c *Cluster) SetTracer(t trace.Tracer) { c.tracer = t }

// Span sets the active trace-span label; subsequent rounds are attributed to
// it in Stats.Spans and emitted trace events (same labels as the MPC
// simulator: "sparsify", "seed-search", "gather", "finish"; default "setup").
// A tracer implementing trace.SpanObserver is notified immediately, so live
// introspection sees the phase change before its first round commits.
//
// Safe to call concurrently with a running step: the label is stored
// atomically and pinned once per barrier, so a mid-step switch attributes
// the in-flight round entirely to the old label.
func (c *Cluster) Span(name string) {
	c.span.Store(&name)
	if o, ok := c.tracer.(trace.SpanObserver); ok {
		o.SpanChange(name)
	}
}

// CurrentSpan returns the active trace-span label.
func (c *Cluster) CurrentSpan() string { return *c.span.Load() }

// N returns the node count.
func (c *Cluster) N() int { return c.n }

// Config returns the configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cluster) Stats() Stats {
	out := c.stats
	out.Violations = append([]Violation(nil), c.stats.Violations...)
	out.Spans = append([]mpc.SpanStat(nil), c.stats.Spans...)
	return out
}

// ChargeRounds accounts for k analytically modeled rounds.
func (c *Cluster) ChargeRounds(k int) {
	span := c.CurrentSpan()
	for i := 0; i < k; i++ {
		c.stats.Rounds++
		c.bumpSpan(span, 1, 0, 0, 0, 0, 0, 0)
		if c.tracer != nil {
			c.tracer.Superstep(trace.Event{
				Round:   c.stats.Rounds,
				Step:    "charged",
				Span:    span,
				Charged: true,
			})
		}
	}
}

// findSpan returns the (possibly new) aggregate for the named span; the
// last entry is checked first so consecutive rounds in one phase are O(1).
func (c *Cluster) findSpan(span string) *mpc.SpanStat {
	if n := len(c.stats.Spans); n > 0 && c.stats.Spans[n-1].Span == span {
		return &c.stats.Spans[n-1]
	}
	for i := range c.stats.Spans {
		if c.stats.Spans[i].Span == span {
			return &c.stats.Spans[i]
		}
	}
	c.stats.Spans = append(c.stats.Spans, mpc.SpanStat{Span: span})
	return &c.stats.Spans[len(c.stats.Spans)-1]
}

// bumpSpan folds one committed round (or several, for Lenzen-routed and
// charged steps) into the named span's aggregate. Runs single-threaded at
// the barrier, with the span label pinned by the caller.
func (c *Cluster) bumpSpan(span string, rounds int, messages, words int64, maxSent, maxRecv int, giniSent, giniRecv float64) {
	sp := c.findSpan(span)
	sp.Rounds += rounds
	sp.Messages += messages
	sp.Words += words
	if maxSent > sp.MaxSent {
		sp.MaxSent = maxSent
	}
	if maxRecv > sp.MaxRecv {
		sp.MaxRecv = maxRecv
	}
	if giniSent > sp.GiniSent {
		sp.GiniSent = giniSent
	}
	if giniRecv > sp.GiniRecv {
		sp.GiniRecv = giniRecv
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

	c     *Cluster
	round int
	inbox []Message
	ob    *stepOutbox

	crashed  bool
	panicked any
	stack    []byte
}

// sendRec is one queued message of n words from node src to node dst. Its
// payload follows the previous record's in the worker's slab, so the
// offset is implicit. Node ids fit int32 (NewCluster refuses larger
// cliques), which halves the record.
type sendRec struct {
	dst, src int32
	n        int
}

// sendLog is one worker's flat record of a round attempt's sends: every
// payload back to back in one word slab, plus one record per message in send
// order. The Cluster owns the logs and reuses them across rounds, so a warm
// Send allocates nothing; step closures reach a log only through their
// attempt's stepOutbox header, which the seal cuts off.
type sendLog struct {
	words []uint64
	sends []sendRec
	// counts holds the log's sends per destination once its worker has
	// finished its block; the barrier turns the counts into write cursors
	// (see deliver).
	counts []int
	// scratch is per-worker evaluation space for collectives whose closures
	// run node by node on the worker's goroutine (ScatterAggregateFloat).
	scratch []float64
}

// floats returns the worker's scratch resized to n entries and zeroed.
func (lg *sendLog) floats(n int) []float64 {
	if cap(lg.scratch) < n {
		lg.scratch = make([]float64, n)
	}
	out := lg.scratch[:n]
	clear(out)
	return out
}

// count tallies the log's sends per destination.
func (lg *sendLog) count(n int) {
	if cap(lg.counts) < n {
		lg.counts = make([]int, n)
	}
	lg.counts = lg.counts[:n]
	clear(lg.counts)
	for i := range lg.sends {
		lg.counts[lg.sends[i].dst]++
	}
}

// stepOutbox is one worker's per-attempt header over its reused send log —
// the same per-worker buffering discipline as the MPC simulator (see
// mpc.Cluster and DESIGN.md §8). The mutex serves step closures that spawn
// their own joined sender goroutines, and the seal the worker sets once its
// block has run: a send through a sealed header, from a goroutine that
// outlived its step, becomes mpc.ErrStaleCtx and never reaches the log,
// which by then may already hold a later attempt's traffic.
type stepOutbox struct {
	mu     sync.Mutex
	sealed bool
	log    *sendLog
}

// finish seals the header, then counts the log's sends per destination. The
// seal's lock acquisition publishes every send of the block's joined
// goroutines to the counting worker.
func (ob *stepOutbox) finish(n int) {
	ob.mu.Lock()
	ob.sealed = true
	ob.mu.Unlock()
	ob.log.count(n)
}

// Inbox returns the messages delivered at the end of the previous step,
// ordered by sender.
func (x *Ctx) Inbox() []Message { return x.inbox }

// Send queues payload words to node dst for delivery at the end of the
// step. The payload is copied. Sending on an invalidated context (after its
// step completed) drops the payload and records mpc.ErrStaleCtx, returned by
// the cluster's next step.
func (x *Ctx) Send(dst int, payload ...uint64) {
	lg := x.open(dst, len(payload))
	if lg == nil {
		return
	}
	lg.sends = append(lg.sends, sendRec{dst: int32(dst), src: int32(x.Node), n: len(payload)})
	lg.words = append(lg.words, payload...)
	x.ob.mu.Unlock()
}

// sendFloats sends row[e] to node e for every e, as one single-word
// message per destination (IEEE-754 bits), in one critical section: the row
// form of Send behind ScatterAggregateFloat's scatter.
func (x *Ctx) sendFloats(row []float64) {
	if len(row) == 0 {
		return
	}
	lg := x.open(len(row)-1, len(row))
	if lg == nil {
		return
	}
	words, sends := len(lg.words), len(lg.sends)
	lg.words = slices.Grow(lg.words, len(row))[:words+len(row)]
	lg.sends = slices.Grow(lg.sends, len(row))[:sends+len(row)]
	ws, rs := lg.words[words:], lg.sends[sends:]
	for e, f := range row {
		ws[e] = math.Float64bits(f)
		rs[e] = sendRec{dst: int32(e), src: int32(x.Node), n: 1}
	}
	x.ob.mu.Unlock()
}

// open locks the context's outbox for a send of words words whose highest
// destination is dst and returns the log to append to, with the lock held.
// On a sealed outbox it records the late send and returns nil, unlocked. A
// destination outside the clique panics (unlocked), which the step surfaces
// as the node's *mpc.MachineError.
func (x *Ctx) open(dst, words int) *sendLog {
	ob := x.ob
	ob.mu.Lock()
	if ob.sealed {
		ob.mu.Unlock()
		x.c.noteLateSend(x.Node, x.round, words)
		return nil
	}
	if dst < 0 || dst >= x.c.n {
		ob.mu.Unlock()
		panic(fmt.Sprintf("clique: node %d sent to node %d outside [0, %d)", x.Node, dst, x.c.n))
	}
	return ob.log
}

// noteLateSend records the sticky stale-context error surfaced by the next
// step.
func (c *Cluster) noteLateSend(node, round, words int) {
	c.mu.Lock()
	if c.lateErr == nil {
		c.lateErr = fmt.Errorf("clique: node %d sent %d words after its round (%d) completed: %w",
			node, words, round, mpc.ErrStaleCtx)
	}
	c.mu.Unlock()
}

// takeLateErr returns and clears the sticky late-send error.
func (c *Cluster) takeLateErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.lateErr
	c.lateErr = nil
	return err
}

// Step executes one synchronous round under the per-pair bandwidth budget.
func (c *Cluster) Step(name string, f func(x *Ctx)) error {
	return c.step(name, f, false)
}

// RouteStep executes one Lenzen-routed exchange: per-node send/receive
// budgets of n·PairWords words, charged as LenzenRounds rounds.
func (c *Cluster) RouteStep(name string, f func(x *Ctx)) error {
	return c.step(name, f, true)
}

// crashNow consumes one injected crash for (round, v); a fault fires only
// once, so the round's re-execution after recovery does not crash again.
func (c *Cluster) crashNow(round, v int) bool {
	if !c.cfg.Faults.CrashesAt(round, v) {
		return false
	}
	key := [2]int{round, v}
	if _, ok := c.fired[key]; ok {
		return false
	}
	if c.fired == nil {
		c.fired = make(map[[2]int]struct{})
	}
	c.fired[key] = struct{}{}
	return true
}

// attempt is the transient state of one round execution attempt: the
// per-node contexts and the per-worker send logs they fed, in ascending
// node-block order. The contexts and their outbox headers live and die with
// the attempt; the logs are the Cluster's, reset when the next attempt
// starts.
type attempt struct {
	ctxs    []Ctx
	logs    []*sendLog
	crashed []int
	merr    *mpc.MachineError
}

// chargeDiscarded charges the aborted attempt's buffered traffic to
// ReplayedWords (it is re-sent by the re-execution).
func (at *attempt) chargeDiscarded(c *Cluster) {
	for _, lg := range at.logs {
		c.stats.ReplayedWords += int64(len(lg.words))
	}
}

// runAttempt executes one attempt of a round: f runs on every non-crashed
// node via a bounded worker pool (Config.Parallelism workers; 1 runs every
// node inline on the calling goroutine, in node order), panics recovered per
// node. Crash decisions (which consume once-only fault events) are taken
// sequentially before any worker starts. Each worker seals its outbox and
// counts its sends per destination as soon as its block has run.
func (c *Cluster) runAttempt(round int, f func(x *Ctx)) *attempt {
	at := &attempt{ctxs: make([]Ctx, c.n)}
	for v := range at.ctxs {
		at.ctxs[v] = Ctx{Node: v, c: c, round: round, inbox: c.inboxes[v]}
		if c.crashNow(round, v) {
			at.ctxs[v].crashed = true
			at.crashed = append(at.crashed, v)
		}
	}
	run := func(x *Ctx) {
		defer func() {
			if r := recover(); r != nil {
				x.panicked = r
				x.stack = debug.Stack()
			}
		}()
		f(x)
	}
	// Bounded worker pool: n can be thousands of nodes.
	workers := c.parallelism()
	if workers > c.n {
		workers = c.n
	}
	per := (c.n + workers - 1) / workers
	blocks := (c.n + per - 1) / per
	for len(c.logs) < blocks {
		c.logs = append(c.logs, &sendLog{})
	}
	at.logs = c.logs[:blocks]
	block := func(ob *stepOutbox, lo, hi int) {
		// Deferred so the log is sealed and counted even if a closure
		// ends its goroutine with runtime.Goexit.
		defer ob.finish(c.n)
		for v := lo; v < hi; v++ {
			if !at.ctxs[v].crashed {
				run(&at.ctxs[v])
			}
		}
	}
	var wg sync.WaitGroup
	for w, lg := range at.logs {
		lo, hi := w*per, min((w+1)*per, c.n)
		lg.words, lg.sends = lg.words[:0], lg.sends[:0]
		ob := &stepOutbox{log: lg}
		for v := lo; v < hi; v++ {
			at.ctxs[v].ob = ob
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
	for v := range at.ctxs {
		if at.ctxs[v].panicked != nil {
			at.merr = &mpc.MachineError{Machine: v, Round: round, Panic: at.ctxs[v].panicked, Stack: at.ctxs[v].stack}
			break
		}
	}
	return at
}

// deliver lays the attempt's sends out as per-destination boxes in the
// canonical (src, send order) sequence, identical at every parallelism
// level. A prefix sum over (destination, worker) turns each worker's
// per-destination counts into write cursors into one message array for the
// round, so dst's box holds worker 0's sends to dst, then worker 1's, and so
// on: ascending node blocks. The workers' slabs are copied into one word
// arena and their records scattered into the message array in parallel
// (inline with a single worker). Both arrays are fresh each round, because
// the next round's closures read these boxes while they send. The order is
// then verified (and, for step closures whose joined goroutines interleaved
// sends across nodes of one block, restored by a stable sort) before the
// boxes reach the transport, which assumes it.
func (c *Cluster) deliver(logs []*sendLog) [][]Message {
	start := c.boxStart
	total := 0
	for dst := 0; dst < c.n; dst++ {
		start[dst] = total
		for _, lg := range logs {
			k := lg.counts[dst]
			lg.counts[dst] = total
			total += k
		}
	}
	start[c.n] = total
	words := 0
	for _, lg := range logs {
		words += len(lg.words)
	}
	msgs := make([]Message, total)
	arena := make([]uint64, words)
	scatter := func(lg *sendLog, slab []uint64) {
		copy(slab, lg.words)
		cursor := lg.counts
		off := 0
		for _, s := range lg.sends {
			end := off + s.n
			msgs[cursor[s.dst]] = Message{Src: int(s.src), Payload: slab[off:end:end]}
			cursor[s.dst]++
			off = end
		}
	}
	if len(logs) == 1 {
		scatter(logs[0], arena)
	} else {
		var wg sync.WaitGroup
		for _, lg := range logs {
			slab := arena[:len(lg.words)]
			arena = arena[len(lg.words):]
			wg.Add(1)
			go func() {
				defer wg.Done()
				scatter(lg, slab)
			}()
		}
		wg.Wait()
	}
	boxes := make([][]Message, c.n)
	for dst := 0; dst < c.n; dst++ {
		lo, hi := start[dst], start[dst+1]
		if lo == hi {
			continue
		}
		box := msgs[lo:hi:hi]
		for i := 1; i < len(box); i++ {
			if box[i].Src < box[i-1].Src {
				sort.SliceStable(box, func(i, j int) bool { return box[i].Src < box[j].Src })
				break
			}
		}
		boxes[dst] = box
	}
	return boxes
}

func (c *Cluster) step(name string, f func(x *Ctx), routed bool) error {
	if err := c.takeLateErr(); err != nil {
		return err
	}
	if err := c.barrierErr(); err != nil {
		return err
	}
	round := c.stats.Rounds + 1
	// Pin the span label once per barrier: a driver switching spans while
	// workers still run attributes this round entirely to the old label.
	span := c.CurrentSpan()
	preCrashes := c.stats.RecoveredCrashes
	preRecovery := c.stats.RecoveryRounds
	preReplayed := c.stats.ReplayedWords
	preDropped := c.stats.DroppedMessages
	preDups := c.stats.DupMessages
	preStalls := c.stats.StallRounds
	preMsgs := c.stats.Messages
	preWords := c.stats.Words
	var at *attempt
	for {
		at = c.runAttempt(round, f)
		if at.merr != nil {
			return at.merr
		}
		if len(at.crashed) == 0 {
			break
		}
		// Crashed nodes restart from the barrier-committed state of the
		// previous round and the round re-executes (node computation is
		// deterministic, so the re-execution reproduces the fault-free
		// messages exactly). The aborted attempt's sends are discarded
		// (the retry resets the logs); their word count is charged as
		// replay.
		c.stats.RecoveredCrashes += len(at.crashed)
		c.stats.RecoveryRounds++
		at.chargeDiscarded(c)
	}
	if p := c.cfg.Faults; p != nil {
		for v := 0; v < c.n; v++ {
			if p.StallsAt(round, v) {
				c.stats.StallRounds++
			}
		}
	}

	// Canonicalize the exchange: deliver the per-worker logs in fixed node
	// order (see deliver) and, when a transport is configured, hand all
	// boxes to it before any accounting — exactly the MPC simulator's
	// contract, so one transport implementation serves both models. A failed
	// exchange aborts before the round commits.
	boxes := c.deliver(at.logs)
	if c.cfg.Transport != nil {
		exchanged, err := c.cfg.Transport.Exchange(round, boxes)
		if err != nil {
			return &TransportError{Round: c.stats.Rounds, Stats: c.Stats(), Err: err}
		}
		boxes = exchanged
	}

	if routed {
		c.stats.Rounds += LenzenRounds
	} else {
		c.stats.Rounds++
	}

	var firstErr error
	droppedThisRound := false
	sentByNode := c.sentW
	clear(sentByNode)
	maxRecv := 0
	for dst := 0; dst < c.n; dst++ {
		box := boxes[dst]
		recv := 0
		pairWords := 0
		prevSrc := -1
		seq := 0
		for _, msg := range box {
			if msg.Src != prevSrc {
				pairWords = 0
				seq = 0
				prevSrc = msg.Src
			}
			// Transport faults, decided on the sorted (schedule-independent)
			// order: drops are retransmitted, duplicates deduplicated, so
			// the delivered box is always exactly the sent messages.
			if pf := c.cfg.Faults; pf != nil {
				if pf.DropsMessage(round, msg.Src, dst, seq) {
					c.stats.DroppedMessages++
					c.stats.ReplayedWords += int64(len(msg.Payload))
					droppedThisRound = true
				}
				if pf.DupsMessage(round, msg.Src, dst, seq) {
					c.stats.DupMessages++
				}
			}
			seq++
			pairWords += len(msg.Payload)
			recv += len(msg.Payload)
			sentByNode[msg.Src] += len(msg.Payload)
			c.stats.Messages++
			c.stats.Words += int64(len(msg.Payload))
			if !routed && pairWords > c.cfg.PairWords {
				if err := c.violate(Violation{
					Round: c.stats.Rounds, Src: msg.Src, Dst: dst,
					Kind: "pair", Words: pairWords, Limit: c.cfg.PairWords,
				}); err != nil && firstErr == nil {
					firstErr = err
				}
				pairWords = -1 << 30 // flag once per pair per round
			}
		}
		c.recvW[dst] = recv
		if recv > maxRecv {
			maxRecv = recv
		}
		if recv > c.stats.PeakRecv {
			c.stats.PeakRecv = recv
		}
		nodeLimit := c.n * c.cfg.PairWords
		if recv > nodeLimit {
			if err := c.violate(Violation{
				Round: c.stats.Rounds, Src: dst, Dst: -1,
				Kind: "received", Words: recv, Limit: nodeLimit,
			}); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		c.inboxes[dst] = box
	}
	if routed {
		nodeLimit := c.n * c.cfg.PairWords
		for v, sent := range sentByNode {
			if sent > nodeLimit {
				if err := c.violate(Violation{
					Round: c.stats.Rounds, Src: v, Dst: -1,
					Kind: "routed", Words: sent, Limit: nodeLimit,
				}); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	if droppedThisRound {
		c.stats.RecoveryRounds++
	}
	// Skew accounting across nodes: max/mean ratios and Gini coefficients
	// (computed on the reusable scratch buffer — no allocation per round).
	maxSent := 0
	for _, s := range sentByNode {
		if s > maxSent {
			maxSent = s
		}
	}
	roundMsgs := c.stats.Messages - preMsgs
	roundWords := c.stats.Words - preWords
	copy(c.sortBuf, sentByNode)
	giniSent := trace.Gini(c.sortBuf)
	copy(c.sortBuf, c.recvW)
	giniRecv := trace.Gini(c.sortBuf)
	if roundWords > 0 {
		mean := float64(roundWords) / float64(c.n)
		if s := float64(maxSent) / mean; s > c.stats.SkewSent {
			c.stats.SkewSent = s
		}
		if s := float64(maxRecv) / mean; s > c.stats.SkewRecv {
			c.stats.SkewRecv = s
		}
	}
	if giniSent > c.stats.GiniSent {
		c.stats.GiniSent = giniSent
	}
	if giniRecv > c.stats.GiniRecv {
		c.stats.GiniRecv = giniRecv
	}
	charged := 1
	if routed {
		charged = LenzenRounds
	}
	c.bumpSpan(span, charged, roundMsgs, roundWords, maxSent, maxRecv, giniSent, giniRecv)
	if c.tracer != nil {
		// Event slices are freshly allocated: sinks may retain them. The
		// clique model has no memory budget, so Resident stays nil.
		c.tracer.Superstep(trace.Event{
			Round:          c.stats.Rounds,
			Step:           name,
			Span:           span,
			Sent:           append([]int(nil), sentByNode...),
			Recv:           append([]int(nil), c.recvW...),
			Messages:       int(roundMsgs),
			Words:          int(roundWords),
			MaxSent:        maxSent,
			MaxRecv:        maxRecv,
			GiniSent:       giniSent,
			GiniRecv:       giniRecv,
			Crashes:        c.stats.RecoveredCrashes - preCrashes,
			RecoveryRounds: c.stats.RecoveryRounds - preRecovery,
			ReplayedWords:  c.stats.ReplayedWords - preReplayed,
			Dropped:        c.stats.DroppedMessages - preDropped,
			Duplicated:     c.stats.DupMessages - preDups,
			Stalls:         c.stats.StallRounds - preStalls,
		})
	}
	return firstErr
}

func (c *Cluster) violate(v Violation) error {
	c.stats.Violations = append(c.stats.Violations, v)
	if c.cfg.Strict {
		return fmt.Errorf("%w: %s", ErrBandwidth, v)
	}
	return nil
}

// Drain empties and returns node v's inbox — the node-local consumption of
// delivered messages between steps.
func (c *Cluster) Drain(v int) []Message {
	box := c.inboxes[v]
	c.inboxes[v] = nil
	return box
}

// SumToZero has every node contribute one word, summed at node 0 in one
// round (each contribution travels a distinct pair link). Returns the sum.
func (c *Cluster) SumToZero(name string, local func(v int) uint64) (uint64, error) {
	if err := c.Step(name, func(x *Ctx) {
		x.Send(0, local(x.Node))
	}); err != nil {
		return 0, err
	}
	var sum uint64
	for _, msg := range c.Drain(0) {
		for _, w := range msg.Payload {
			sum += w
		}
	}
	return sum, nil
}

// MaxToZero is SumToZero with max instead of sum.
func (c *Cluster) MaxToZero(name string, local func(v int) uint64) (uint64, error) {
	if err := c.Step(name, func(x *Ctx) {
		x.Send(0, local(x.Node))
	}); err != nil {
		return 0, err
	}
	var best uint64
	for _, msg := range c.Drain(0) {
		for _, w := range msg.Payload {
			if w > best {
				best = w
			}
		}
	}
	return best, nil
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
		c.inboxes[v] = nil
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
		out := x.ob.log.floats(nExt)
		local(x.Node, out)
		x.sendFloats(out)
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
