package rulingset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// The per-candidate evaluation of the mark estimators: one seed state (fixed
// prefix plus provisional chunk) at a time, in float64, term by term. It is
// the oracle the batched fixed-point evaluation (batch.go) must match bit
// for bit on every candidate of every chunk.

// evalCtx binds a markState to one concrete seed state (fixed prefix plus
// provisional chunk) with the partial segment's SegState extracted once.
// Create one per estimator evaluation with ms.ctx(s).
type evalCtx struct {
	ms         *markState
	seg        hash.SegState
	hasPartial bool
}

// ctx prepares an evaluation context for the seed state s (which may carry a
// provisional chunk inside the partial segment).
func (ms *markState) ctx(s *hash.Seed) evalCtx {
	ec := evalCtx{ms: ms, hasPartial: ms.fixedSegs < ms.fam.NBits()}
	if ec.hasPartial {
		ec.seg = ms.fam.SegState(s, ms.fixedSegs)
	}
	return ec
}

// markProb returns P[mark(v)] where mark(v) is the AND of the first j linear
// bits, conditioned on the context's seed state.
func (ec evalCtx) markProb(v, j int) float64 {
	ms := ec.ms
	full := ms.fixedSegs
	if full > j {
		full = j
	}
	if int(ms.firstZero[v]) < full {
		return 0
	}
	if ms.fixedSegs >= j {
		return 1
	}
	// Partial segment (index fixedSegs) plus fully free segments.
	p := ms.fam.P1Seg(ec.seg, v)
	return p * pow2neg(j-ms.fixedSegs-1)
}

// pairProb returns P[mark(u) ∧ mark(w)] for distinct u, w with per-vertex
// exponents ju, jw, conditioned on the context's seed state.
func (ec evalCtx) pairProb(u, w, ju, jw int) float64 {
	ms := ec.ms
	if int(ms.firstZero[u]) < minInt(ms.fixedSegs, ju) ||
		int(ms.firstZero[w]) < minInt(ms.fixedSegs, jw) {
		return 0
	}
	a, b := ju, jw
	long := w
	if a > b {
		a, b = b, a
		long = u
	}
	p := 1.0
	ps := ms.fixedSegs // partial segment index, if one exists

	// Joint head: segments [0, a). Fully fixed ones contribute 1 (both alive
	// there, checked above); the partial one needs the exact pair law; fully
	// free ones contribute 1/4 each.
	fullHead := minInt(ms.fixedSegs, a)
	partialInHead := ec.hasPartial && ps < a
	freeHead := a - fullHead
	if partialInHead {
		freeHead--
		p = ms.fam.P11Seg(ec.seg, u, w)
		if p == 0 {
			return 0
		}
	}
	p *= pow2neg(2 * freeHead)

	// Tail: segments [a, b) involve only the vertex with the larger j.
	if b > a {
		fullTail := minInt(ms.fixedSegs, b) - a
		if fullTail < 0 {
			fullTail = 0
		}
		partialInTail := ec.hasPartial && ps >= a && ps < b
		freeTail := (b - a) - fullTail
		if partialInTail {
			freeTail--
			p *= ms.fam.P1Seg(ec.seg, long)
		}
		p *= pow2neg(freeTail)
	}
	return p
}

// markProb is the convenience form used by the brute-force tests.
func (ms *markState) markProb(s *hash.Seed, v, j int) float64 {
	return ms.ctx(s).markProb(v, j)
}

// pairProb is the convenience form used by the brute-force tests.
func (ms *markState) pairProb(s *hash.Seed, u, w, ju, jw int) float64 {
	return ms.ctx(s).pairProb(u, w, ju, jw)
}

// _pow2neg[i] = 2^-i for the exponent range the families can produce.
var _pow2neg = func() [130]float64 {
	var t [130]float64
	for i := range t {
		t[i] = math.Ldexp(1, -i)
	}
	return t
}()

func pow2neg(i int) float64 {
	if i < len(_pow2neg) {
		return _pow2neg[i]
	}
	return math.Ldexp(1, -i)
}

// sparsifyOracle is Φ's terms owned by vertices [lo, hi) under the single
// seed state s.
func sparsifyOracle(p *sparsifyPhi, lo, hi int, s *hash.Seed) float64 {
	ms, j := p.ms, p.j
	ec := ms.ctx(s)
	var cost, benefit float64
	for v := lo; v < hi; v++ {
		if !p.active.Contains(v) {
			continue
		}
		nb := p.view.Of(v)
		if int(ms.firstZero[v]) >= minInt(ms.fixedSegs, j) {
			for _, u := range nb {
				if int(u) > v {
					cost += ec.pairProb(v, int(u), j, j)
				}
			}
		}
		if len(nb) < p.highDeg {
			continue
		}
		nn := nb[:p.capSize]
		for i, u := range nn {
			pu := ec.markProb(int(u), j)
			if pu == 0 {
				continue
			}
			benefit += pu
			for _, w := range nn[i+1:] {
				benefit -= ec.pairProb(int(u), int(w), j, j)
			}
		}
	}
	return p.alpha*cost - benefit
}

// lubyOracle is Ψ's terms owned by vertices [lo, hi) under the single seed
// state s.
func lubyOracle(p *lubyPsi, lo, hi int, s *hash.Seed) float64 {
	ec := p.ms.ctx(s)
	var psi float64
	for v := lo; v < hi; v++ {
		if !p.active.Contains(v) || p.deg[v] == 0 {
			continue
		}
		jv := lubyJ(int(p.deg[v]))
		pv := ec.markProb(v, jv)
		term := pv
		if pv != 0 {
			du := p.nbrDeg.ValsOf(v)
			for i, u := range p.nbrDeg.Of(v) {
				term -= ec.pairProb(v, int(u), jv, lubyJ(int(du[i])))
			}
		}
		psi += float64(p.deg[v]) * term
	}
	return psi
}

// batchCase is one estimator's seed search, checked against its oracle.
type batchCase struct {
	ms     *markState
	obj    derand.Objective
	fp     *fixedPoint
	eval   termEval
	oracle func(lo, hi int, s *hash.Seed) float64
}

// checkBatchedSearch runs bc's seed search on a cluster of the given machine
// count with chunk width z, comparing at the initial evaluation and at every
// chunk each machine's batched values — and each single vertex's, the
// congested clique's granularity — against the per-candidate oracle bit for
// bit on every candidate. The float64 sum of a machine's per-vertex values
// must also equal its batched value bit for bit: the sums are exact, so the
// machine partition cannot change them. It also checks the
// conditional-expectation guarantee with tolerance 0, and returns the number
// of values compared.
func checkBatchedSearch(t testing.TB, bc batchCase, n, machines, z int) int {
	t.Helper()
	c, err := mpc.NewCluster(mpc.Config{Machines: machines}, n)
	if err != nil {
		t.Fatal(err)
	}
	batched := batchedEval(bc.ms, bc.fp, machines, bc.eval)
	var (
		mu       sync.Mutex
		compared int
		mismatch string
	)
	compare := func(what string, start int, got, want []float64) {
		mu.Lock()
		defer mu.Unlock()
		compared += len(got)
		for e := range got {
			if mismatch == "" && math.Float64bits(got[e]) != math.Float64bits(want[e]) {
				mismatch = fmt.Sprintf("%s, chunk at bit %d, candidate %d: batched %v, oracle %v", what, start, e, got[e], want[e])
			}
		}
	}
	check := func(x *mpc.Ctx, s *hash.Seed, start, width int, out []float64) {
		batched(x, s, start, width, out)
		want := make([]float64, len(out))
		derand.PerCandidate(func(x *mpc.Ctx, s *hash.Seed) float64 {
			return bc.oracle(x.Lo, x.Hi, s)
		})(x, s, start, width, want)
		compare(fmt.Sprintf("machine %d", x.Machine), start, out, want)

		ce := bc.ms.chunk(s, width, bc.fp)
		var bk buckets
		got := make([]float64, len(out))
		sum := make([]float64, len(out))
		for v := x.Lo; v < x.Hi; v++ {
			bc.eval(&ce, v, v+1, &bk, got)
			derand.PerCandidate(func(_ *mpc.Ctx, s *hash.Seed) float64 {
				return bc.oracle(v, v+1, s)
			})(x, s, start, width, want)
			compare(fmt.Sprintf("vertex %d", v), start, got, want)
			for e := range sum {
				sum[e] += got[e]
			}
		}
		compare(fmt.Sprintf("machine %d summed per vertex", x.Machine), start, sum, out)
	}
	seed := bc.ms.fam.NewSeed()
	trace, err := derand.SelectSeed(c, seed, derand.Config{
		ChunkBits: z,
		Objective: bc.obj,
		AlignTo:   bc.ms.fam.SegWidth(),
		OnChunk:   func(s *hash.Seed, _, _ int) { bc.ms.sync(s) },
	}, check)
	if err != nil {
		t.Fatal(err)
	}
	if mismatch != "" {
		t.Fatalf("batched evaluation differs from the per-candidate oracle: %s", mismatch)
	}
	if idx := derand.CheckMonotone(bc.obj, trace, 0); idx != -1 {
		t.Fatalf("conditional expectations not monotone at chunk %d: %+v", idx, trace)
	}
	return compared
}

// randomPhase draws an active set (each vertex active with probability 3/4)
// and the ascending active-neighbour views the phase exchanges.
func randomPhase(g *graph.Graph, rng *rand.Rand) (*bitset.Set, [][]int32) {
	n := g.N()
	active := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(4) > 0 {
			active.Add(v)
		}
	}
	view := make([][]int32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if active.Contains(int(u)) {
				view[v] = append(view[v], u)
			}
		}
	}
	return active, view
}

// maxView returns the largest active degree.
func maxView(active *bitset.Set, view [][]int32) int {
	best := 0
	active.ForEach(func(v int) bool {
		best = max(best, len(view[v]))
		return true
	})
	return best
}

// sparsifyCase builds one sampling phase's potential with exponent j,
// benefit cap and cost weight alpha (benefitCap 0 = the paper's 2^j).
func sparsifyCase(t testing.TB, active *bitset.Set, view [][]int32, j, benefitCap int, alpha float64) batchCase {
	t.Helper()
	n := active.Len()
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMarkState(fam, n)
	phi := newSparsifyPhi(ms, Options{BenefitCap: benefitCap, EstimatorAlpha: alpha}, active, csr(view, nil), j)
	if err := phi.fp.check("sparsify", true); err != nil {
		t.Fatal(err)
	}
	return batchCase{
		ms: ms, obj: derand.Minimize, fp: &phi.fp, eval: phi.eval,
		oracle: func(lo, hi int, s *hash.Seed) float64 { return sparsifyOracle(phi, lo, hi, s) },
	}
}

// lubyCase builds one Luby iteration's potential: per-vertex exponents from
// the active degrees, so neighbours with different degrees contribute
// tail-segment pair terms.
func lubyCase(t testing.TB, active *bitset.Set, view [][]int32) (batchCase, bool) {
	t.Helper()
	n := active.Len()
	deg := make([]int32, n)
	active.ForEach(func(v int) bool {
		deg[v] = int32(len(view[v]))
		return true
	})
	nbrDeg := make([][]int32, n)
	mixed := false
	for v := range view {
		for _, u := range view[v] {
			nbrDeg[v] = append(nbrDeg[v], deg[u])
			if active.Contains(v) && lubyJ(int(deg[u])) != lubyJ(int(deg[v])) {
				mixed = true
			}
		}
	}
	fam, err := hash.NewBits(n, lubyJ(max(maxView(active, view), 1)))
	if err != nil {
		t.Fatal(err)
	}
	ms := newMarkState(fam, n)
	psi := newLubyPsi(ms, active, csr(view, nbrDeg), deg)
	if err := psi.fp.check("luby", true); err != nil {
		t.Fatal(err)
	}
	return batchCase{
		ms: ms, obj: derand.Maximize, fp: &psi.fp, eval: psi.eval,
		oracle: func(lo, hi int, s *hash.Seed) float64 { return lubyOracle(psi, lo, hi, s) },
	}, mixed
}

// TestBatchedSeedEvalMatchesOracle is the batched evaluator's property
// test: on random gnp and powerlaw graphs, full seed searches of the
// sparsification potential (every schedule exponent, benefit caps, cost
// weights α ∈ {0.5, 2, 3, 8}), of the same potential at the congested
// clique's per-node granularity, and of Luby's potential with mixed
// per-vertex exponents agree with the per-candidate oracle bit for bit on
// every candidate of every chunk.
func TestBatchedSeedEvalMatchesOracle(t *testing.T) {
	specs := []string{
		"gnp:n=60,p=0.15",
		"gnp:n=90,p=0.06",
		"powerlaw:n=80,gamma=2.2,avg=6",
		"powerlaw:n=120,gamma=2.5,avg=4",
	}
	alphas := []float64{0.5, 2, 3, 8}
	caps := []int{0, 1, 3, 5}
	compared, mixedLuby := 0, 0
	for si, spec := range specs {
		for trial := 0; trial < 3; trial++ {
			seed := int64(100*si + trial)
			rng := rand.New(rand.NewSource(seed))
			g := gen.MustBuild(spec, seed)
			active, view := randomPhase(g, rng)
			delta := maxView(active, view)
			if delta == 0 {
				continue
			}
			for i, j := range schedule(delta) {
				name := fmt.Sprintf("%s seed %d j=%d", spec, seed, j)
				alpha := alphas[(trial+i)%len(alphas)]
				benefitCap := caps[(si+i)%len(caps)]
				z := 1 + rng.Intn(8)
				machines := 1 + rng.Intn(5)
				t.Run(name, func(t *testing.T) {
					compared += checkBatchedSearch(t, sparsifyCase(t, active, view, j, benefitCap, alpha), g.N(), machines, z)
				})
			}
			lc, mixed := lubyCase(t, active, view)
			if mixed {
				mixedLuby++
			}
			t.Run(fmt.Sprintf("%s seed %d luby", spec, seed), func(t *testing.T) {
				compared += checkBatchedSearch(t, lc, g.N(), 1+rng.Intn(5), 1+rng.Intn(8))
			})
		}
	}
	if mixedLuby == 0 {
		t.Fatal("no Luby instance mixed per-vertex exponents: tail-segment terms untested")
	}
	t.Logf("%d candidate values compared", compared)
}

// FuzzBatchedSeedEval drives the batched evaluator against the
// per-candidate oracle on fuzzer-chosen graphs, active sets, exponents,
// benefit caps, cost weights, chunk widths and machine counts: every
// candidate of every chunk must agree bit for bit.
func FuzzBatchedSeedEval(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(0), uint8(1), uint8(0), uint8(8), uint8(3), false)
	f.Add(int64(7), uint8(70), uint8(4), uint8(2), uint8(3), uint8(2), uint8(3), uint8(1), true)
	f.Add(int64(-5), uint8(25), uint8(30), uint8(1), uint8(2), uint8(5), uint8(1), uint8(4), false)
	f.Add(int64(42), uint8(90), uint8(6), uint8(3), uint8(0), uint8(0), uint8(5), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, densRaw, family, alphaPick, capRaw, zRaw, machRaw uint8, luby bool) {
		n := int(nRaw)%100 + 2
		avg := float64(densRaw%20) + 1
		spec := fmt.Sprintf("gnp:n=%d,p=%g", n, math.Min(1, avg/float64(n)))
		if family%2 == 1 {
			spec = fmt.Sprintf("powerlaw:n=%d,gamma=%g,avg=%g", n, 2+float64(family%4)/4, avg)
		}
		sp, err := gen.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sp.Build(seed)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		active, view := randomPhase(g, rng)
		delta := maxView(active, view)
		if delta == 0 {
			return
		}
		z := int(zRaw)%10 + 1
		machines := int(machRaw)%6 + 1
		var bc batchCase
		if luby {
			bc, _ = lubyCase(t, active, view)
		} else {
			js := schedule(delta)
			j := js[int(seed&0xff)%len(js)]
			alpha := []float64{0.5, 2, 3, 8}[alphaPick%4]
			bc = sparsifyCase(t, active, view, j, int(capRaw)%6, alpha)
		}
		checkBatchedSearch(t, bc, g.N(), machines, z)
	})
}

// firstLubyPsi builds the potential of DetLubyMIS's first iteration on g:
// every vertex active, views the full neighbourhoods.
func firstLubyPsi(t testing.TB, g *graph.Graph) *lubyPsi {
	t.Helper()
	n := g.N()
	active := bitset.New(n)
	view := make([][]int32, n)
	deg := make([]int32, n)
	maxDeg := 1
	for v := 0; v < n; v++ {
		active.Add(v)
		view[v] = g.Neighbors(v)
		deg[v] = int32(len(view[v]))
		maxDeg = max(maxDeg, len(view[v]))
	}
	nbrDeg := make([][]int32, n)
	for v := range view {
		for _, u := range view[v] {
			nbrDeg[v] = append(nbrDeg[v], deg[u])
		}
	}
	fam, err := hash.NewBits(n, lubyJ(maxDeg))
	if err != nil {
		t.Fatal(err)
	}
	return newLubyPsi(newMarkState(fam, n), active, csr(view, nbrDeg), deg)
}

// firstSparsifyPhi builds the potential of DetRuling2's first sampling
// phase on g (the largest schedule exponent) under o.
func firstSparsifyPhi(t testing.TB, g *graph.Graph, o Options) *sparsifyPhi {
	t.Helper()
	n := g.N()
	active := bitset.New(n)
	view := make([][]int32, n)
	delta := 0
	for v := 0; v < n; v++ {
		active.Add(v)
		view[v] = g.Neighbors(v)
		delta = max(delta, len(view[v]))
	}
	j := schedule(delta)[0]
	fam, err := hash.NewBits(n, j)
	if err != nil {
		t.Fatal(err)
	}
	return newSparsifyPhi(newMarkState(fam, n), o.withDefaults(n), active, csr(view, nil), j)
}

// csr packs per-vertex lists, and values aligned with them when vals is
// non-nil, into the exchange's CSR layout.
func csr(lists, vals [][]int32) *graph.Adjacency {
	off := make([]int32, len(lists)+1)
	var nbrs, flatVals []int32
	for v, l := range lists {
		nbrs = append(nbrs, l...)
		if vals != nil {
			flatVals = append(flatVals, vals[v]...)
		}
		off[v+1] = int32(len(nbrs))
	}
	return graph.NewAdjacency(off, nbrs, flatVals)
}

// TestPrecisionGuard checks the fixed-point range guard: a potential whose
// sums could leave the exact range is refused with a structured error before
// any evaluation, the bound is inclusive and counts α's fractional bits, and
// an ablation without a search is checked only where it evaluates.
func TestPrecisionGuard(t *testing.T) {
	// One class of lone marks with exponent 1 on a 1-segment family: while
	// segment 0 is partial each term's two coefficients need scale 1 and
	// sum to 2 units, so 2^52 terms reach 2^53 exactly.
	marks := newTermClasses(1)
	marks.add(0, 1, 1<<52, 1)
	fp := newFixedPoint(1, 1, marks, nil)
	if err := fp.check("luby", true); err != nil {
		t.Fatalf("bound exactly at 2^53 refused: %v", err)
	}
	marks.add(0, 1, 1, 1)
	fp = newFixedPoint(1, 1, marks, nil)
	var pe *PrecisionError
	if err := fp.check("luby", true); !errors.As(err, &pe) {
		t.Fatalf("bound above 2^53 accepted: %v", err)
	}
	if pe.Estimator != "luby" || pe.Segment != 0 || pe.Bound != 1<<53+2 || pe.Scale != 1 {
		t.Fatalf("error fields = %+v", pe)
	}

	// α multiplies the cost sums: 2^50 cost terms (2^51 units) fit at α = 4
	// but not at α = 5. At α = 0.5 the unit halves, so 2^51 benefit terms
	// count 2^53 half units on top of the cost's 2^51.
	cost := newTermClasses(1)
	cost.add(0, 1, 1<<50, 1)
	if err := newFixedPoint(1, 4, cost, nil).check("sparsify", true); err != nil {
		t.Fatalf("α = 4: %v", err)
	}
	if err := newFixedPoint(1, 5, cost, nil).check("sparsify", true); !errors.As(err, &pe) {
		t.Fatalf("α = 5 accepted: %v", err)
	}
	benefit := newTermClasses(1)
	benefit.add(0, 1, 1<<51, 1)
	fp = newFixedPoint(1, 0.5, cost, benefit)
	if err := fp.check("sparsify", true); !errors.As(err, &pe) || pe.Scale != 2 || pe.Bound != 1<<51+1<<53 {
		t.Fatalf("α = 0.5: err = %v, fields %+v", err, pe)
	}
	for _, alpha := range []float64{0.1, 1.0 / 3, math.NaN(), math.Inf(1)} {
		if err := newFixedPoint(1, alpha, cost, benefit).check("sparsify", false); !errors.As(err, &pe) {
			t.Fatalf("α = %v with no exact product accepted: %v", alpha, err)
		}
	}

	// Without a search only the start and the fully fixed end are
	// evaluated.
	mid := fixedPoint{scale: []int{4, 2, 0}, bound: []uint64{1, maxExact + 1, 1}}
	if err := mid.check("sparsify", false); err != nil {
		t.Fatalf("ablation checked a segment it never evaluates: %v", err)
	}
	if err := mid.check("sparsify", true); !errors.As(err, &pe) || pe.Segment != 1 {
		t.Fatalf("search: err = %v", err)
	}

	// End to end: a cost weight with no exact float64 product is refused
	// before the search, on the MPC and the clique path alike.
	g := gen.MustBuild("gnp:n=64,p=0.2", 3)
	if _, err := DetRuling2(g, Options{EstimatorAlpha: 0.1}); !errors.As(err, &pe) || pe.Estimator != "sparsify" {
		t.Fatalf("DetRuling2 with α = 0.1: err = %v, want *PrecisionError", err)
	}
}

// TestPrecisionGuardLimit pins where the guard trips. A double star (two
// adjacent hubs of degree d+1, each with d leaves) under DetLubyMIS needs
// scale 2·lubyJ(d+1) for the hub pair, while its d leaf marks of
// probability ½ each sum to about d·2^(2·lubyJ−1) units: 2^51 at d = 2^16,
// where the guard's coefficient bound reaches 2^53.6. Below that the search
// runs; at it the guard refuses before any round. Dense and star-shaped
// inputs stay far inside the range.
func TestPrecisionGuardLimit(t *testing.T) {
	for _, legs := range []int{4200, 1 << 15} {
		g := gen.MustBuild(fmt.Sprintf("caterpillar:spine=2,legs=%d", legs), 0)
		res, err := DetLubyMIS(g, Options{})
		if err != nil {
			t.Fatalf("double star with %d legs per hub: %v", legs, err)
		}
		if err := Check(g, res); err != nil {
			t.Fatalf("double star with %d legs per hub: %v", legs, err)
		}
	}
	g := gen.MustBuild("caterpillar:spine=2,legs=65536", 0)
	var pe *PrecisionError
	if _, err := DetLubyMIS(g, Options{}); !errors.As(err, &pe) || pe.Estimator != "luby" || pe.Segment != 0 || pe.Scale != 36 {
		t.Fatalf("double star with 2^16 legs per hub: err = %v, want *PrecisionError at segment 0, scale 36", err)
	}

	for _, spec := range []string{"gnp:n=2048,p=0.5", "star:n=131073"} {
		g := gen.MustBuild(spec, 1)
		if err := firstLubyPsi(t, g).fp.check("luby", true); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
		if err := firstSparsifyPhi(t, g, Options{}).fp.check("sparsify", true); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
}
