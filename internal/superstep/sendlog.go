package superstep

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Ctx is the engine's part of one participant's step context: its id, the
// round, the inbox delivered by the previous step, and the sealed outbox
// header its sends go through. The adapters embed it in their own context
// types (mpc.Ctx, clique.Ctx).
//
// A Ctx is valid only for the duration of its step: once its worker's block
// has run, the header is sealed, and a late send is dropped and surfaced as
// ErrStaleCtx from the next step instead of corrupting later traffic.
type Ctx struct {
	id    int
	round int
	inbox []Message
	ob    *outbox

	crashed  bool
	panicked any
	stack    []byte
}

// Inbox returns the messages delivered to this participant at the end of
// the previous step, ordered by sender id (and send order within a sender).
func (x *Ctx) Inbox() []Message { return x.inbox }

// Send queues a message of words to participant dst, delivered at the end
// of the step. The payload is copied into the worker's send log.
func (x *Ctx) Send(dst int, payload ...uint64) {
	lg := x.open(dst, len(payload))
	if lg == nil {
		return
	}
	lg.sends = append(lg.sends, sendRec{dst: int32(dst), src: int32(x.id), n: int32(len(payload)), own: -1})
	lg.words = append(lg.words, payload...)
	x.ob.mu.Unlock()
}

// SendOwned queues payload without copying; it is delivered as is, so the
// caller must not reuse it.
func (x *Ctx) SendOwned(dst int, payload []uint64) {
	lg := x.open(dst, len(payload))
	if lg == nil {
		return
	}
	lg.sends = append(lg.sends, sendRec{dst: int32(dst), src: int32(x.id), n: int32(len(payload)), own: int32(len(lg.owned))})
	lg.owned = append(lg.owned, payload)
	x.ob.mu.Unlock()
}

// SendFloats sends row[e] to participant e for every e, as one single-word
// message per destination (IEEE-754 bits), in one critical section: the row
// form of Send behind the clique's scatter-aggregate collective.
func (x *Ctx) SendFloats(row []float64) {
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
		rs[e] = sendRec{dst: int32(e), src: int32(x.id), n: 1, own: -1}
	}
	x.ob.mu.Unlock()
}

// Scratch returns n zeroed float64s of per-worker space, reused by the next
// participant the same worker runs, so callers must not retain it.
func (x *Ctx) Scratch(n int) []float64 {
	lg := x.ob.log
	if cap(lg.scratch) < n {
		lg.scratch = make([]float64, n)
	}
	out := lg.scratch[:n]
	clear(out)
	return out
}

// open locks the context's outbox for a send of words words whose highest
// destination is dst and returns the log to append to, with the lock held.
// On a sealed outbox it records the late send and returns nil, unlocked. A
// destination outside the cluster, or a payload longer than a send record
// can count, panics (unlocked), which the step surfaces as the sender's
// *MachineError.
func (x *Ctx) open(dst, words int) *sendLog {
	ob := x.ob
	ob.mu.Lock()
	if ob.sealed {
		ob.mu.Unlock()
		ob.plane.noteLate(x.id, x.round, words)
		return nil
	}
	p := ob.plane
	if dst < 0 || dst >= p.n {
		ob.mu.Unlock()
		panic(fmt.Sprintf("%s: %s %d sent to %s %d outside [0, %d)", p.model, p.noun, x.id, p.noun, dst, p.n))
	}
	if words > math.MaxInt32 {
		ob.mu.Unlock()
		panic(fmt.Sprintf("%s: %s %d sent a %d-word payload, over the %d words a send record counts", p.model, p.noun, x.id, words, math.MaxInt32))
	}
	return ob.log
}

// plane is the engine state that contexts reach: the participant count and
// names for send checks, and the sticky late-send error.
type plane struct {
	n           int
	model, noun string

	mu      sync.Mutex
	lateErr error
}

// noteLate records the sticky ErrStaleCtx surfaced by the next step.
func (p *plane) noteLate(id, round, words int) {
	p.mu.Lock()
	if p.lateErr == nil {
		p.lateErr = fmt.Errorf("%s: %s %d sent %d words after its round (%d) completed: %w",
			p.model, p.noun, id, words, round, ErrStaleCtx)
	}
	p.mu.Unlock()
}

// takeLate returns and clears the sticky late-send error.
func (p *plane) takeLate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.lateErr
	p.lateErr = nil
	return err
}

// sendRec is one queued message of n words from src to dst. A Send payload
// follows the previous Send payload in the worker's word slab, so its offset
// is implicit and own is -1; a SendOwned payload is owned[own]. Ids and
// lengths fit int32 (clusters and payloads are bounded), which keeps the
// record at 16 bytes.
type sendRec struct {
	dst, src int32
	n, own   int32
}

// sendLog is one worker's flat record of a round attempt's sends: copied
// payloads back to back in one word slab, owned payloads by reference, and
// one record per message in send order. The engine owns the logs and reuses
// them across rounds, so a warm Send allocates nothing; step closures reach
// a log only through their attempt's outbox header, which the seal cuts off.
type sendLog struct {
	words []uint64
	owned [][]uint64
	sends []sendRec
	// counts holds the log's sends per destination once its worker has
	// finished its block; the barrier turns the counts into write cursors
	// (see deliver).
	counts []int
	// scratch is per-worker evaluation space (see Ctx.Scratch).
	scratch []float64
}

// reset empties the log for a new attempt. The owned payloads are released
// so the log never pins an earlier round's traffic.
func (lg *sendLog) reset() {
	lg.words, lg.sends = lg.words[:0], lg.sends[:0]
	clear(lg.owned)
	lg.owned = lg.owned[:0]
}

// sentWords is the number of payload words the log holds.
func (lg *sendLog) sentWords() int64 {
	var w int64
	for _, s := range lg.sends {
		w += int64(s.n)
	}
	return w
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

// outbox is one worker's per-attempt header over its reused send log. The
// mutex serves step closures that spawn their own joined sender goroutines,
// and the seal the worker sets once its block has run: a send through a
// sealed header, from a goroutine that outlived its step, becomes
// ErrStaleCtx and never reaches the log, which by then may already hold a
// later attempt's traffic.
type outbox struct {
	mu     sync.Mutex
	sealed bool
	log    *sendLog
	plane  *plane
}

// finish seals the header, then counts the log's sends per destination. The
// seal's lock acquisition publishes every send of the block's joined
// goroutines to the counting worker.
func (ob *outbox) finish(n int) {
	ob.mu.Lock()
	ob.sealed = true
	ob.mu.Unlock()
	ob.log.count(n)
}

// deliver lays the attempt's sends out as per-destination boxes in the
// canonical (src, send order) sequence, identical at every parallelism
// level. A prefix sum over (destination, worker) turns each worker's
// per-destination counts into write cursors into one message array for the
// round, so dst's box holds worker 0's sends to dst, then worker 1's, and so
// on: ascending id blocks. The workers' slabs are copied into one word arena
// and their records scattered into the message array in parallel (inline
// with a single worker); owned payloads are delivered without a copy. Both
// arrays are fresh each round, because the next round's closures read these
// boxes while they send. The order is then verified (and, for step closures
// whose joined goroutines interleaved sends across participants of one
// block, restored by stableSortBySrc) before the boxes reach the transport,
// which assumes it.
func (e *Engine[C, S]) deliver(logs []*sendLog) [][]Message {
	n := e.cfg.N
	start := e.boxStart
	total := 0
	for dst := 0; dst < n; dst++ {
		start[dst] = total
		for _, lg := range logs {
			k := lg.counts[dst]
			lg.counts[dst] = total
			total += k
		}
	}
	start[n] = total
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
			var payload []uint64
			if s.own >= 0 {
				payload = lg.owned[s.own]
			} else {
				end := off + int(s.n)
				payload = slab[off:end:end]
				off = end
			}
			msgs[cursor[s.dst]] = Message{Src: int(s.src), Payload: payload}
			cursor[s.dst]++
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
	boxes := make([][]Message, n)
	for dst := 0; dst < n; dst++ {
		lo, hi := start[dst], start[dst+1]
		if lo == hi {
			continue
		}
		box := msgs[lo:hi:hi]
		for i := 1; i < len(box); i++ {
			if box[i].Src < box[i-1].Src {
				stableSortBySrc(box)
				break
			}
		}
		boxes[dst] = box
	}
	return boxes
}

// stableSortBySrc restores one destination box to the canonical total order:
// ascending sender id, ties broken by per-sender send sequence. The
// comparator keys on Src alone, so totality rests on two guarantees that
// must both hold: sort.SliceStable never reorders equal elements, and every
// producer appends one sender's messages in that sender's send order (a
// worker runs its participants sequentially; in-closure sender goroutines
// must be joined before the closure returns). The duplicate-src fan-in tests
// pin the combination — they would flake under a non-stable sort or an
// unordered producer.
func stableSortBySrc(box []Message) {
	sort.SliceStable(box, func(i, j int) bool { return box[i].Src < box[j].Src })
}
