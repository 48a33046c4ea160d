// Package derand implements the distributed method of conditional
// expectations — the derandomization engine of the reproduced paper.
//
// A randomized phase draws a seed for a pairwise-independent hash family and
// succeeds in expectation: E[Φ(seed)] is good, where Φ is a pessimistic
// estimator of the phase's progress. The deterministic version fixes the
// seed bit-chunk by bit-chunk: for each candidate extension of the next z
// bits, every machine computes its local contribution to the conditional
// expectation E[Φ | prefix, extension] exactly (the hash package provides
// closed-form conditional laws); contributions are summed by a gather, the
// coordinator keeps the best extension, and broadcasts it. By induction the
// fully fixed seed satisfies Φ(seed) ≤ E[Φ] (for minimization) — a per-phase
// guarantee that holds with certainty, not merely with high probability.
//
// The chunk width z trades rounds for bandwidth: a seed of L bits is fixed in
// ⌈L/z⌉ gather/broadcast pairs, each carrying 2^z conditional expectations
// per machine. With z = Θ(log n) the whole seed is fixed in O(1) collective
// steps in the near-linear-memory regime — the observation behind the
// paper's round bounds.
//
// Local work need not grow like terms·2^z. A LocalEval is batched: it is
// called once per machine per chunk and fills all 2^z candidate values in
// one call. The mark estimators (package rulingset) exploit that every term
// depends on the chunk bits e only through at most two parities ⟨e, m⟩, so
// one pass buckets each term's Fourier coefficients by mask in an exact
// int64 fixed-point accumulator and a fast Walsh–Hadamard transform yields
// all 2^z values: O(terms + z·2^z) per chunk, and the sums are exact. An
// estimator without such a closed form evaluates candidate by candidate
// through PerCandidate, which is also the tests' oracle for the batched
// estimators.
package derand

import (
	"fmt"
	"math"

	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// Objective says whether smaller or larger estimator values are better.
type Objective int

const (
	// Minimize prefers smaller Φ (e.g. cost − benefit potentials).
	Minimize Objective = iota + 1
	// Maximize prefers larger Φ (e.g. expected progress lower bounds).
	Maximize
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case Minimize:
		return "minimize"
	case Maximize:
		return "maximize"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Config tunes the seed-selection procedure.
type Config struct {
	// ChunkBits is z, the number of seed bits fixed per gather/broadcast
	// step (1 <= z <= 20). Default 8.
	ChunkBits int
	// Objective selects the optimization direction; default Minimize.
	Objective Objective
	// AlignTo, when positive, truncates chunks at multiples of AlignTo so a
	// chunk never straddles an alignment boundary. The mark-tracking
	// estimators set it to the hash family's per-linear-bit seed segment
	// width, which keeps at most one segment partially fixed at any time.
	AlignTo int
	// OnChunk, when non-nil, is called once before each chunk's candidate
	// extensions are evaluated, with the seed in its committed state. It lets
	// estimators refresh incremental caches keyed on the fixed prefix.
	OnChunk func(s *hash.Seed, start, width int)
}

func (cfg Config) withDefaults() (Config, error) {
	if cfg.ChunkBits == 0 {
		cfg.ChunkBits = 8
	}
	if cfg.ChunkBits < 1 || cfg.ChunkBits > 20 {
		return cfg, fmt.Errorf("derand: chunk bits %d out of [1,20]", cfg.ChunkBits)
	}
	if cfg.Objective == 0 {
		cfg.Objective = Minimize
	}
	if cfg.Objective != Minimize && cfg.Objective != Maximize {
		return cfg, fmt.Errorf("derand: unknown objective %v", cfg.Objective)
	}
	return cfg, nil
}

// LocalEval computes a machine's exact local contribution to the conditional
// expectation E[Φ | seed state] — the sum of the estimator terms owned by the
// machine (its vertices/edges) — for every candidate extension of one chunk
// at once. s is the committed seed, whose fixed prefix ends at start; the
// chunk covers seed bits [start, start+width). out has length 2^width and
// arrives zeroed; out[e] receives the contribution with the chunk set to e
// (bit i of e is seed bit start+i). Width 0 asks for the expectation under
// the fixed prefix alone, in out[0]. Implementations must not modify s and
// must only read state belonging to the machine described by x.
type LocalEval func(x *mpc.Ctx, s *hash.Seed, start, width int, out []float64)

// PerCandidate adapts a single-candidate evaluator — the machine's
// contribution under the seed state s, whose fixed prefix includes the
// provisional chunk — to a LocalEval that calls it once per candidate. It
// costs 2^width evaluations per chunk; estimators with a closed-form batched
// evaluation should implement LocalEval directly.
func PerCandidate(eval func(x *mpc.Ctx, s *hash.Seed) float64) LocalEval {
	return func(x *mpc.Ctx, s *hash.Seed, start, width int, out []float64) {
		local := s.Clone()
		local.SetFixed(start + width)
		for e := range out {
			local.SetChunk(start, width, uint64(e))
			out[e] = eval(x, local)
		}
	}
}

// Trace records the conditional-expectation trajectory of one seed
// selection; the conditional expectations are non-increasing (Minimize) or
// non-decreasing (Maximize) along Values — the method's defining guarantee,
// asserted by tests and by experiment T6.
type Trace struct {
	// Initial is E[Φ] with no bits fixed.
	Initial float64
	// Values[i] is E[Φ | first i chunks fixed]; the last entry is the exact
	// realized Φ of the selected seed.
	Values []float64
	// Steps is the number of gather/broadcast pairs used.
	Steps int
}

// Final returns the realized estimator value of the selected seed.
func (t Trace) Final() float64 {
	if len(t.Values) == 0 {
		return t.Initial
	}
	return t.Values[len(t.Values)-1]
}

// SelectSeed deterministically fixes all free bits of s by the method of
// conditional expectations, using eval as the machine-local estimator and
// the cluster's collectives for coordination. On return s is fully fixed and
// the realized Φ(s) is at least as good as the initial expectation.
func SelectSeed(c *mpc.Cluster, s *hash.Seed, cfg Config, eval LocalEval) (Trace, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Trace{}, err
	}
	// Seed selection is its own observable phase: attribute its collectives
	// to the "seed-search" span, restoring the caller's span on return.
	caller := c.CurrentSpan()
	c.Span("seed-search")
	defer c.Span(caller)
	var trace Trace

	// Each machine keeps one evaluation buffer for the whole call; only the
	// gathered payload, which the cluster takes ownership of, is per chunk.
	scratch := make([][]float64, c.Machines())
	gather := func(name string, start, width int) ([][]uint64, error) {
		return c.Gather(name, func(x *mpc.Ctx) []uint64 {
			nExt := 1 << uint(width)
			buf := scratch[x.Machine]
			if cap(buf) < nExt {
				buf = make([]float64, nExt)
				scratch[x.Machine] = buf
			}
			out := buf[:nExt]
			clear(out)
			eval(x, s, start, width, out)
			words := make([]uint64, nExt)
			for e, v := range out {
				words[e] = math.Float64bits(v)
			}
			return words
		})
	}

	// Initial expectation: one extra collective, kept for the guarantee
	// check; each machine evaluates the unconditioned expectation locally.
	parts, err := gather("derand/init", s.Fixed(), 0)
	if err != nil {
		return Trace{}, err
	}
	for _, part := range parts {
		for _, w := range part {
			trace.Initial += math.Float64frombits(w)
		}
	}

	for s.Fixed() < s.Total() {
		start := s.Fixed()
		width := cfg.ChunkBits
		if rem := s.Total() - start; width > rem {
			width = rem
		}
		if cfg.AlignTo > 0 {
			if toBoundary := cfg.AlignTo - start%cfg.AlignTo; width > toBoundary {
				width = toBoundary
			}
		}
		nExt := 1 << uint(width)
		if cfg.OnChunk != nil {
			cfg.OnChunk(s, start, width)
		}

		parts, err := gather("derand/eval", start, width)
		if err != nil {
			return trace, err
		}
		totals := make([]float64, nExt)
		for m, part := range parts {
			if part == nil {
				continue
			}
			if len(part) != nExt {
				return trace, fmt.Errorf("derand: machine %d sent %d values, want %d", m, len(part), nExt)
			}
			for e, w := range part {
				totals[e] += math.Float64frombits(w)
			}
		}
		best := 0
		for e := 1; e < nExt; e++ {
			if better(cfg.Objective, totals[e], totals[best]) {
				best = e
			}
		}
		if _, err := c.Broadcast("derand/pick", []uint64{uint64(best)}); err != nil {
			return trace, err
		}
		s.SetChunk(start, width, uint64(best))
		s.Commit(width)
		trace.Values = append(trace.Values, totals[best])
		trace.Steps++
	}
	return trace, nil
}

// better reports whether candidate improves on incumbent under obj, with
// strict improvement required so ties resolve to the smallest extension.
func better(obj Objective, candidate, incumbent float64) bool {
	if obj == Minimize {
		return candidate < incumbent
	}
	return candidate > incumbent
}

// CheckMonotone verifies the conditional-expectation guarantee on a trace:
// every value must be at least as good as the one before it, starting from
// the initial expectation, up to tol. Estimators whose terms are exact
// dyadic rationals (the mark estimators' fixed-point sums) satisfy it with
// tol = 0. It returns the first offending index or -1.
func CheckMonotone(obj Objective, t Trace, tol float64) int {
	prev := t.Initial
	for i, v := range t.Values {
		var bad bool
		if obj == Minimize {
			bad = v > prev+tol
		} else {
			bad = v < prev-tol
		}
		if bad {
			return i
		}
		prev = v
	}
	return -1
}
