package rulingset

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// schedule returns the sampling-exponent schedule for maximum degree delta:
// j₁ ≈ log₂Δ − 1 (probability ≈ 2/Δ), halving until 1. The probability
// therefore squares-up each phase, p_{i+1} ≈ √p_i — the geometric escalation
// that makes the number of phases Θ(log log Δ).
func schedule(delta int) []int {
	j := bits.Len(uint(delta)) - 1
	if j < 1 {
		j = 1
	}
	var js []int
	for {
		js = append(js, j)
		if j == 1 {
			return js
		}
		j = (j + 1) / 2
	}
}

// sparsifyState carries the sample-and-sparsify loop's evolving sets so that
// β-ruling levels can run partial schedules against shared state.
type sparsifyState struct {
	active     *bitset.Set
	candidates *bitset.Set
	phases     []PhaseStat
}

func newSparsifyState(n int) *sparsifyState {
	s := &sparsifyState{
		active:     bitset.New(n),
		candidates: bitset.New(n),
	}
	s.active.Fill()
	return s
}

// runPhases executes the sampling phases for the given exponents js on d,
// updating st. Deterministic phases derandomize the sampling with the method
// of conditional expectations; randomized phases draw marks from rng with
// the same power-of-two probabilities, so the two variants are directly
// comparable.
//
// Phase contract (verified by tests): after each phase, every vertex that
// left the active set is either in the candidate set or adjacent to it.
func runPhases(d *mpc.DistGraph, o Options, st *sparsifyState, js []int, deterministic bool, rng *rand.Rand) error {
	g := d.Graph()
	c := d.Cluster()
	n := g.N()
	c.Span("sparsify")
	for _, j := range js {
		if st.active.Count() == 0 {
			return nil
		}
		if len(st.phases) >= o.MaxPhases {
			return fmt.Errorf("rulingset: phase cap %d exceeded", o.MaxPhases)
		}
		view, err := d.ExchangeActive("sparsify/view", st.active, nil)
		if err != nil {
			return err
		}
		ps := PhaseStat{
			Phase:        len(st.phases) + 1,
			J:            j,
			ActiveBefore: st.active.Count(),
		}
		capSize := 1 << uint(j)
		st.active.ForEach(func(v int) bool {
			nb := view.Of(v)
			if len(nb) >= capSize {
				ps.HighDegBefore++
			}
			for _, u := range nb {
				if int(u) > v {
					ps.ActiveEdges++
				}
			}
			return true
		})

		marks := bitset.New(n)
		if deterministic {
			if err := detMarks(c, o, st.active, view, j, marks, &ps, rng); err != nil {
				return err
			}
		} else {
			p := math.Ldexp(1, -j)
			st.active.ForEach(func(v int) bool {
				if rng.Float64() < p {
					marks.Add(v)
				}
				return true
			})
		}

		ps.Marked = marks.Count()
		marks.ForEach(func(v int) bool {
			for _, u := range view.Of(v) {
				if int(u) > v && marks.Contains(int(u)) {
					ps.CandidateEdges++
				}
			}
			return true
		})

		st.candidates.Union(marks)
		touched, err := d.NotifyNeighbors("sparsify/dominate", marks, st.active)
		if err != nil {
			return err
		}
		st.active.Subtract(marks)
		st.active.Subtract(touched)

		// Termination check: machines report local active counts (the
		// coordinator's loop condition is driven by real communication).
		counts, err := c.AllReduceSumUint("sparsify/active", func(x *mpc.Ctx) []uint64 {
			var local uint64
			for v := x.Lo; v < x.Hi; v++ {
				if st.active.Contains(v) {
					local++
				}
			}
			return []uint64{local}
		})
		if err != nil {
			return err
		}
		ps.ActiveAfter = int(counts[0])
		st.phases = append(st.phases, ps)
	}
	return nil
}

// absorbActive moves all still-active vertices into the candidate set (the
// loop's closing step: afterwards every vertex is in the candidate set or
// adjacent to it).
func (st *sparsifyState) absorbActive() {
	st.candidates.Union(st.active)
	st.active.Clear()
}

// detMarks runs one derandomized sampling phase: it builds the
// pairwise-independent AND-family for probability 2^-j, selects its seed by
// the distributed method of conditional expectations against the
// sparsification potential
//
//	Φ(seed) = α·Σ_{active edges (u,w)} P[mark u ∧ mark w]
//	        − Σ_{active v, deg_A(v) ≥ 2^j} ( Σ_{u ∈ N'(v)} P[mark u]
//	                                        − Σ_{u<w ∈ N'(v)} P[mark u ∧ mark w] )
//
// (N'(v) = the first 2^j active neighbors of v; the inner Bonferroni
// difference lower-bounds P[some N'(v) vertex marked], i.e. v's
// deactivation), and fills marks with the realized marks. Minimizing Φ
// guarantees the fixed seed adds few candidate-internal edges while
// deactivating at least the expected share of high-degree vertices.
//
// The ablation knobs (Options.SeedPolicy, EstimatorAlpha, BenefitCap) vary
// the construction; their defaults are the paper's choices.
func detMarks(c *mpc.Cluster, o Options, active *bitset.Set, view *graph.Adjacency, j int, marks *bitset.Set, ps *PhaseStat, rng *rand.Rand) error {
	n := active.Len()
	fam, err := hash.NewBits(n, j)
	if err != nil {
		return err
	}
	seed := fam.NewSeed()
	ms := newMarkState(fam, n)
	phi := newSparsifyPhi(ms, o, active, view, j)
	if err := phi.fp.check("sparsify", o.SeedPolicy == SeedConditionalExpectations); err != nil {
		return err
	}

	switch o.SeedPolicy {
	case SeedConditionalExpectations:
		trace, err := derand.SelectSeed(c, seed, derand.Config{
			ChunkBits: o.ChunkBits,
			Objective: derand.Minimize,
			AlignTo:   fam.SegWidth(),
			OnChunk:   func(s *hash.Seed, _, _ int) { ms.sync(s) },
		}, batchedEval(ms, &phi.fp, c.Machines(), phi.eval))
		if err != nil {
			return err
		}
		ps.SeedSteps = trace.Steps
		ps.EstimatorInitial = trace.Initial
		ps.EstimatorFinal = trace.Final()
	case SeedRandomFamily, SeedZero:
		// Ablations: record the unconditioned expectation, then fix the seed
		// without searching. A real deployment still spends one broadcast
		// distributing the seed.
		ps.EstimatorInitial = wholeValue(ms, &phi.fp, n, phi.eval, seed)
		if o.SeedPolicy == SeedRandomFamily {
			seed.Randomize(rng)
		} else {
			seed.SetFixed(seed.Total())
		}
		seedWords := make([]uint64, (seed.Total()+63)/64)
		for i := 0; i < seed.Total(); i++ {
			seedWords[i/64] |= seed.Bit(i) << uint(i%64)
		}
		if _, err := c.Broadcast("sparsify/seed", seedWords); err != nil {
			return err
		}
		ms.sync(seed)
		ps.EstimatorFinal = wholeValue(ms, &phi.fp, n, phi.eval, seed)
	default:
		return fmt.Errorf("rulingset: unknown seed policy %v", o.SeedPolicy)
	}

	ms.sync(seed)
	active.ForEach(func(v int) bool {
		if ms.marked(v, j) {
			marks.Add(v)
		}
		return true
	})
	return nil
}
