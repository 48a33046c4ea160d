package rulingset

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// Batched, exact evaluation of the mark estimators over one
// conditional-expectation chunk.
//
// Chunks are segment-aligned, so the chunk's bits e all lie in the one
// partially fixed segment ps = markState.fixedSegs, and every other segment
// is either fully fixed or fully free for every candidate. Linear bit ps at
// vertex v is then, for every e, either uniform (a coefficient above the
// chunk is still free) or determined and equal to c_v ⊕ ⟨e, m_v⟩, where m_v
// is the chunk's slice of v's coefficient vector and c_v the parity of the
// committed part. A term P[mark u] or P[mark u ∧ mark w] is a power-of-two
// constant times P1 or P11 of segment ps, so as a function of e it depends
// only on ⟨e, m_u⟩ and ⟨e, m_w⟩: its Fourier support is {0, m_u, m_w,
// m_u⊕m_w}. One pass adds every term's (at most four) Fourier coefficients
// into 2^z buckets indexed by mask; an unnormalized Walsh–Hadamard transform
// then yields the estimator under all 2^z candidates at once —
// O(terms + z·2^z) per chunk instead of O(terms·2^z).
//
// The buckets are int64 fixed point with unit 2^-scale, where scale depends
// on the partial segment ps: it is the most fractional bits any term class
// needs while ps is partial (termBits), so it falls as segments fix and a
// term's probability grows. Every Fourier coefficient is then an integer.
// The values are converted to float64 only after the transform, and before
// the search fixedPoint.check bounds, for every ps the search can reach, the
// largest possible |α·cost − benefit| — counted in units of 2^-scale and of
// α's own fractional bits — by 2^53. Every bucket, every transform stage,
// every converted value, α·cost − benefit and every partial sum across
// machines is then an integer multiple of the unit below 2^53, so exact. The
// float64 results are therefore the exact conditional expectations, bit for
// bit what the per-candidate evaluation computes, and independent of how
// the terms are split across machines or clique nodes.

// maxExact is the fixed-point headroom: integers up to 2^53 convert to
// float64 exactly (and sit far inside int64).
const maxExact = 1 << 53

// PrecisionError reports a seed search whose estimator sums could leave the
// exactly representable range: while segment Segment is partial, the
// largest possible |α·cost − benefit| is Bound units of 2^-Scale, above
// 2^53. The search refuses to run rather than round.
type PrecisionError struct {
	// Estimator names the potential ("sparsify" or "luby").
	Estimator string
	// Segment is the partial segment at which the bound is exceeded.
	Segment int
	// Bound is the largest possible sum in units of 2^-Scale (saturating
	// at the largest uint64).
	Bound uint64
	// Scale is the exponent of the unit: the bucket scale plus the
	// fractional bits of α.
	Scale int
}

// Error implements error.
func (e *PrecisionError) Error() string {
	return fmt.Sprintf("rulingset: %s estimator out of exact range at segment %d: sums up to %d units of 2^-%d exceed 2^53",
		e.Estimator, e.Segment, e.Bound, e.Scale)
}

// addSat adds without wrapping, saturating at the largest uint64.
func addSat(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}

// mulSat multiplies without wrapping, saturating at the largest uint64.
func mulSat(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// shlSat shifts left without wrapping, saturating at the largest uint64.
func shlSat(x uint64, k int) uint64 {
	if x == 0 {
		return 0
	}
	if k >= 64 || x > math.MaxUint64>>uint(k) {
		return math.MaxUint64
	}
	return x << uint(k)
}

// termBits describes a term P[mark u ∧ mark w] with exponents a ≤ b (a = 0
// for a lone mark of exponent b) while segment ps is partial: need is the
// number of fractional bits its Fourier coefficients need (chunkEval.addPair
// shifts by scale − need), free the number of its fully free coordinates —
// 2 per joint head segment, 1 per tail segment. Its probability is at most
// 2^-free, so its coefficients sum to at most |mult|·2^(scale − free) in
// absolute value.
func termBits(a, b, ps int) (need, free int) {
	head := max(a-ps-1, 0)
	tail := max(b-max(ps+1, a), 0)
	free = 2*head + tail
	switch {
	case ps < a:
		need = free + 2 // P11 of the partial segment: quarter units
	case ps < b:
		need = free + 1 // P1 of the partial segment: half units
	default:
		need = free
	}
	return need, free
}

// termClasses accumulates Σ|mult| of a potential's terms by exponent class
// (a, b), a ≤ b ≤ nbits; a lone mark of exponent j is class (0, j).
type termClasses struct {
	nbits int
	w     []uint64 // w[a*(nbits+1)+b]
}

func newTermClasses(nbits int) *termClasses {
	return &termClasses{nbits: nbits, w: make([]uint64, (nbits+1)*(nbits+1))}
}

// add records count terms of exponents ju, jw, each of multiplier mult.
func (tc *termClasses) add(ju, jw int, count, mult uint64) {
	a, b := min(ju, jw), max(ju, jw)
	i := a*(tc.nbits+1) + b
	tc.w[i] = addSat(tc.w[i], mulSat(count, mult))
}

// need returns the most fractional bits any recorded class needs while
// segment ps is partial.
func (tc *termClasses) need(ps int) int {
	best := 0
	for i, w := range tc.w {
		if w != 0 {
			need, _ := termBits(i/(tc.nbits+1), i%(tc.nbits+1), ps)
			best = max(best, need)
		}
	}
	return best
}

// extent bounds Σ|Fourier coefficient| over the recorded terms at the given
// scale while segment ps is partial, in units of 2^-scale. It bounds every
// bucket before, during and after the transform.
func (tc *termClasses) extent(ps, scale int) uint64 {
	var sum uint64
	for i, w := range tc.w {
		if w != 0 {
			_, free := termBits(i/(tc.nbits+1), i%(tc.nbits+1), ps)
			sum = addSat(sum, shlSat(w, scale-free))
		}
	}
	return sum
}

// dyadic writes |x| = num·2^-frac with frac ≥ 0 minimal; ok is false for
// NaN and infinities.
func dyadic(x float64) (num uint64, frac int, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, 0, false
	}
	if x == 0 {
		return 0, 0, true
	}
	m, e := math.Frexp(math.Abs(x)) // |x| = m·2^e, m ∈ [½, 1)
	num = uint64(math.Ldexp(m, 53)) // exact: m has 53 significant bits
	tz := bits.TrailingZeros64(num)
	num >>= uint(tz)
	frac = 53 - e - tz
	if frac < 0 {
		return shlSat(num, -frac), 0, true
	}
	return num, frac, true
}

// fixedPoint is a potential's fixed-point layout: the bucket scale and the
// exactness bound at every partial segment the search can reach.
type fixedPoint struct {
	// scale[ps] is the bucket exponent while segment ps is partial (ps =
	// nbits once the seed is fully fixed).
	scale []int
	// bound[ps] bounds |α·cost − benefit| over any subset of the terms in
	// units of 2^-(scale[ps]+frac).
	bound []uint64
	// frac is the number of fractional bits of α.
	frac int
}

// newFixedPoint lays out a potential α·Σ weighted − Σ plain (plain may be
// nil) over a family of nbits segments.
func newFixedPoint(nbits int, alpha float64, weighted, plain *termClasses) fixedPoint {
	if plain == nil {
		plain = newTermClasses(nbits)
	}
	num, frac, ok := dyadic(alpha)
	fp := fixedPoint{scale: make([]int, nbits+1), bound: make([]uint64, nbits+1), frac: frac}
	for ps := range fp.scale {
		scale := max(weighted.need(ps), plain.need(ps))
		fp.scale[ps] = scale
		// Each bucket alone must also stay exact when α is 0, hence
		// max(num, 1).
		fp.bound[ps] = addSat(mulSat(max(num, 1), weighted.extent(ps, scale)), shlSat(plain.extent(ps, scale), frac))
		if !ok {
			fp.bound[ps] = math.MaxUint64
		}
	}
	return fp
}

// check returns a *PrecisionError unless the sums stay exact at every
// partial segment evaluated: all of them for a seed search, otherwise only
// the unconditioned start and the fully fixed end.
func (fp fixedPoint) check(estimator string, search bool) error {
	last := len(fp.scale) - 1
	for ps := range fp.scale {
		if !search && ps != 0 && ps != last {
			continue
		}
		if fp.bound[ps] > maxExact {
			return &PrecisionError{Estimator: estimator, Segment: ps, Bound: fp.bound[ps], Scale: fp.scale[ps] + fp.frac}
		}
	}
	return nil
}

// chunkEval binds a markState to one chunk of width bits starting at the
// committed frontier of a seed. Read-only once built, so machines and clique
// workers share it.
type chunkEval struct {
	ms *markState
	// partial reports whether segment ms.fixedSegs exists (it does while
	// any seed bit is free).
	partial bool
	prefix  uint64  // committed bits of the partial segment
	ft0     uint    // committed coordinates of the partial segment
	ft1     uint    // ft0 plus the chunk width
	mask    uint64  // 2^width − 1
	scale   int     // bucket unit 2^-scale
	unit    float64 // 2^-scale
}

// chunk prepares the batched evaluation of the width bits that follow the
// committed prefix of s in the fixed-point layout fp; ms must be synced to
// s. Width 0 evaluates the fixed prefix alone.
func (ms *markState) chunk(s *hash.Seed, width int, fp *fixedPoint) chunkEval {
	scale := fp.scale[ms.fixedSegs]
	ce := chunkEval{
		ms:      ms,
		partial: ms.fixedSegs < ms.fam.NBits(),
		mask:    1<<uint(width) - 1,
		scale:   scale,
		unit:    math.Ldexp(1, -scale),
	}
	if ce.partial {
		st := ms.fam.SegState(s, ms.fixedSegs)
		ce.prefix = st.Seg & st.FixedMask
		ce.ft0 = uint(st.Ft)
		ce.ft1 = ce.ft0 + uint(width)
	}
	return ce
}

// law returns linear bit ms.fixedSegs at v over the chunk: free when a
// coefficient beyond the chunk is still unfixed, otherwise determined and
// equal to c ⊕ ⟨e, m⟩ with sig = (−1)^c.
func (ce *chunkEval) law(v int) (m uint64, sig int64, free bool) {
	a := ce.ms.fam.Coeff(v)
	m = a >> ce.ft0 & ce.mask
	sig = 1 - 2*int64(bits.OnesCount64(ce.prefix&a)&1)
	return m, sig, a>>ce.ft1 != 0
}

// addP1 adds q·2·P[X(v) = 1] over the chunk: X = (1 − sig·χ_m(e))/2, so the
// coefficients are q at mask 0 and −sig·q at m (q is the half-unit).
func (ce *chunkEval) addP1(buf []int64, q int64, v int) {
	buf[0] += q
	if m, sig, free := ce.law(v); !free {
		buf[m] -= sig * q
	}
}

// addP11 adds q·4·P[X(u) = 1 ∧ X(w) = 1] over the chunk for distinct u, w
// (q is the quarter-unit). Mirrors hash.Family.P11Seg case by case.
func (ce *chunkEval) addP11(buf []int64, q int64, u, w int) {
	mu, su, freeU := ce.law(u)
	mw, sw, freeW := ce.law(w)
	buf[0] += q
	switch {
	case !freeU && !freeW: // (1 − su·χ_mu)(1 − sw·χ_mw)/4
		buf[mu] -= su * q
		buf[mw] -= sw * q
		buf[mu^mw] += su * sw * q
	case freeU && !freeW: // ½·X(w)
		buf[mw] -= sw * q
	case !freeU: // ½·X(u)
		buf[mu] -= su * q
	default:
		x := ce.ms.fam.Coeff(u) ^ ce.ms.fam.Coeff(w)
		if x>>ce.ft1 == 0 {
			// Coupled: ½·[X(u) ⊕ X(w) = 0] = (1 + su·sw·χ_{mu⊕mw})/4.
			buf[mu^mw] += su * sw * q
		} // else independent uniform bits: ¼
	}
}

// addMark adds mult·P[mark(v)] for the AND of v's first j linear bits (the
// batched markState.markProb).
func (ce *chunkEval) addMark(buf []int64, mult int64, v, j int) {
	ms := ce.ms
	if ms.dead(v, j) {
		return
	}
	if ms.fixedSegs >= j {
		buf[0] += mult << uint(ce.scale)
		return
	}
	// P1 of the partial segment times 2^-(j-ps-1) for the free segments.
	ce.addP1(buf, mult<<uint(ce.scale-(j-ms.fixedSegs)), v)
}

// addPair adds mult·P[mark(u) ∧ mark(w)] for distinct u, w with per-vertex
// exponents ju, jw (the batched markState.pairProb): the joint head [0, a)
// contributes ¼ per free segment and P11 in the partial one, the tail
// [a, b) of the vertex with the larger exponent ½ per free segment and P1 in
// the partial one.
func (ce *chunkEval) addPair(buf []int64, mult int64, u, w, ju, jw int) {
	ms := ce.ms
	if ms.dead(u, ju) || ms.dead(w, jw) {
		return
	}
	a, b := ju, jw
	long := w
	if a > b {
		a, b = b, a
		long = u
	}
	ps := ms.fixedSegs
	headP11 := ce.partial && ps < a
	tailP1 := ce.partial && ps >= a && ps < b
	freeHead := a - minInt(ps, a)
	freeTail := (b - a) - max(minInt(ps, b)-a, 0)
	if headP11 {
		freeHead--
	}
	if tailP1 {
		freeTail--
	}
	shift := ce.scale - 2*freeHead - freeTail
	switch {
	case headP11:
		ce.addP11(buf, mult<<uint(shift-2), u, w)
	case tailP1:
		ce.addP1(buf, mult<<uint(shift-1), long)
	default:
		buf[0] += mult << uint(shift)
	}
}

// value converts a transformed bucket to the float64 it represents: both
// the conversion and the power-of-two scaling are exact under
// fixedPoint.check.
func (ce *chunkEval) value(x int64) float64 {
	return float64(x) * ce.unit
}

// fwht applies the unnormalized Walsh–Hadamard transform in place:
// afterwards a[e] = Σ_m a[m]·(−1)^popcount(m&e). len(a) is a power of two.
func fwht(a []int64) {
	for h := 1; h < len(a); h <<= 1 {
		for i := 0; i < len(a); i += 2 * h {
			for k := i; k < i+h; k++ {
				x, y := a[k], a[k+h]
				a[k], a[k+h] = x+y, x-y
			}
		}
	}
}

// buckets is an evaluator's fixed-point scratch, reused across chunks.
type buckets struct{ slab []int64 }

// take returns n zeroed entries.
func (bk *buckets) take(n int) []int64 {
	if cap(bk.slab) < n {
		bk.slab = make([]int64, n)
	}
	s := bk.slab[:n]
	clear(s)
	return s
}

// termEval fills out[e] with a potential's terms owned by vertices [lo, hi)
// under every candidate e of ce's chunk (len(out) = 2^width), using bk as
// scratch.
type termEval func(ce *chunkEval, lo, hi int, bk *buckets, out []float64)

// batchedEval adapts a potential to derand.LocalEval: each machine evaluates
// its vertex range into its own buckets, reused for the whole seed search.
func batchedEval(ms *markState, fp *fixedPoint, machines int, eval termEval) derand.LocalEval {
	scratch := make([]buckets, machines)
	return func(x *mpc.Ctx, s *hash.Seed, _, width int, out []float64) {
		ce := ms.chunk(s, width, fp)
		eval(&ce, x.Lo, x.Hi, &scratch[x.Machine], out)
	}
}

// wholeValue evaluates a potential over all n vertices under the fixed
// prefix of s (ms synced to s).
func wholeValue(ms *markState, fp *fixedPoint, n int, eval termEval, s *hash.Seed) float64 {
	ce := ms.chunk(s, 0, fp)
	var out [1]float64
	eval(&ce, 0, n, &buckets{}, out[:])
	return out[0]
}

// sparsifyPhi enumerates the terms of one sampling phase's potential
//
//	Φ = α·Σ_{active edges (u,w)} P[mark u ∧ mark w]
//	  − Σ_{active v, deg_A(v) ≥ 2^j} ( Σ_{u ∈ N'(v)} P[mark u]
//	                                  − Σ_{u<w ∈ N'(v)} P[mark u ∧ mark w] )
//
// (see detMarks), shared by the MPC and congested-clique derandomizers.
// Every vertex owns the cost pairs to its larger active neighbours and its
// own benefit terms.
type sparsifyPhi struct {
	ms      *markState
	active  *bitset.Set
	view    *graph.Adjacency
	j       int
	highDeg int // benefit qualification threshold 2^j
	capSize int // |N'(v)|
	alpha   float64
	fp      fixedPoint
}

// newSparsifyPhi builds phase j's potential under the ablation knobs of o
// (EstimatorAlpha, BenefitCap); callers check p.fp before evaluating it.
func newSparsifyPhi(ms *markState, o Options, active *bitset.Set, view *graph.Adjacency, j int) *sparsifyPhi {
	// highDeg is the qualification threshold ⌊1/p⌋ for the benefit term;
	// capSize truncates the Bonferroni neighborhood N'(v) (equal to highDeg
	// in the paper's construction; smaller only under the A2 ablation).
	highDeg := 1 << uint(j)
	capSize := highDeg
	if o.BenefitCap > 0 && o.BenefitCap < capSize {
		capSize = o.BenefitCap
	}
	p := &sparsifyPhi{
		ms: ms, active: active, view: view, j: j,
		highDeg: highDeg, capSize: capSize, alpha: o.EstimatorAlpha,
	}
	// Every term has exponents (j, j), or (0, j) for a lone mark.
	var pairs, qualified uint64
	active.ForEach(func(v int) bool {
		nb := view.Of(v)
		for _, u := range nb {
			if int(u) > v {
				pairs++
			}
		}
		if len(nb) >= highDeg {
			qualified++
		}
		return true
	})
	nbits := ms.fam.NBits()
	cost, benefit := newTermClasses(nbits), newTermClasses(nbits)
	cost.add(j, j, pairs, 1)
	c := uint64(capSize)
	benefit.add(0, j, qualified, c)
	benefit.add(j, j, qualified, mulSat(c, c-1)/2)
	p.fp = newFixedPoint(nbits, o.EstimatorAlpha, cost, benefit)
	return p
}

// addTerms adds v's cost terms into cost and its benefit terms into benefit.
func (p *sparsifyPhi) addTerms(ce *chunkEval, v int, cost, benefit []int64) {
	if !p.active.Contains(v) {
		return
	}
	ms, j := p.ms, p.j
	nb := p.view.Of(v)
	if !ms.dead(v, j) {
		for _, u := range nb {
			if int(u) > v {
				ce.addPair(cost, 1, v, int(u), j, j)
			}
		}
	}
	if len(nb) < p.highDeg {
		return
	}
	nn := nb[:p.capSize]
	for i, u := range nn {
		if ms.dead(int(u), j) {
			continue
		}
		ce.addMark(benefit, 1, int(u), j)
		for _, w := range nn[i+1:] {
			ce.addPair(benefit, -1, int(u), int(w), j, j)
		}
	}
}

// eval fills out[e] with the potential's terms owned by vertices [lo, hi)
// under every candidate e of ce's chunk (len(out) = 2^width).
func (p *sparsifyPhi) eval(ce *chunkEval, lo, hi int, bk *buckets, out []float64) {
	// Cost and benefit stay apart until conversion so that α·cost − benefit
	// rounds exactly as the float64 definition of Φ does.
	n := len(out)
	slab := bk.take(2 * n)
	cost, benefit := slab[:n], slab[n:]
	for v := lo; v < hi; v++ {
		p.addTerms(ce, v, cost, benefit)
	}
	fwht(cost)
	fwht(benefit)
	for e := range out {
		out[e] = p.alpha*ce.value(cost[e]) - ce.value(benefit[e])
	}
}

// lubyPsi enumerates the terms of Luby's pairwise progress bound
//
//	Ψ = Σ_{active v} deg_A(v)·( P[mark v] − Σ_{u ∈ N_A(v)} P[mark u ∧ mark v] )
//
// with per-vertex exponents lubyJ(deg) (see DetLubyMIS). nbrDeg holds every
// active vertex's active neighbours with their active degrees.
type lubyPsi struct {
	ms     *markState
	active *bitset.Set
	nbrDeg *graph.Adjacency
	deg    []int32
	fp     fixedPoint
}

// newLubyPsi builds the potential of one iteration over a family of nbits
// segments (every exponent lubyJ(deg) is at most nbits); callers check p.fp
// before evaluating it.
func newLubyPsi(ms *markState, active *bitset.Set, nbrDeg *graph.Adjacency, deg []int32) *lubyPsi {
	p := &lubyPsi{ms: ms, active: active, nbrDeg: nbrDeg, deg: deg}
	terms := newTermClasses(ms.fam.NBits())
	active.ForEach(func(v int) bool {
		if deg[v] == 0 {
			return true
		}
		d := uint64(deg[v])
		jv := lubyJ(int(deg[v]))
		terms.add(0, jv, 1, d)
		for _, du := range nbrDeg.ValsOf(v) {
			terms.add(jv, lubyJ(int(du)), 1, d)
		}
		return true
	})
	p.fp = newFixedPoint(ms.fam.NBits(), 1, terms, nil)
	return p
}

// addTerms adds v's weighted terms into buf.
func (p *lubyPsi) addTerms(ce *chunkEval, v int, buf []int64) {
	if !p.active.Contains(v) || p.deg[v] == 0 {
		return
	}
	jv := lubyJ(int(p.deg[v]))
	if p.ms.dead(v, jv) {
		return
	}
	d := int64(p.deg[v])
	ce.addMark(buf, d, v, jv)
	du := p.nbrDeg.ValsOf(v)
	for i, u := range p.nbrDeg.Of(v) {
		ce.addPair(buf, -d, v, int(u), jv, lubyJ(int(du[i])))
	}
}

// eval fills out[e] with the terms owned by vertices [lo, hi) under every
// candidate e of ce's chunk.
func (p *lubyPsi) eval(ce *chunkEval, lo, hi int, bk *buckets, out []float64) {
	buf := bk.take(len(out))
	for v := lo; v < hi; v++ {
		p.addTerms(ce, v, buf)
	}
	fwht(buf)
	for e := range out {
		out[e] = ce.value(buf[e])
	}
}
