package mpc

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/graph"
)

// testGraph: 0-1, 1-2, 2-3, 3-4, 0-4 (5-cycle) plus chord 1-3.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.New(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}, {U: 1, V: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func distTestGraph(t *testing.T, machines int) *DistGraph {
	t.Helper()
	g := testGraph(t)
	c, err := NewCluster(Config{Machines: machines}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distribute(c, g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDistributeChargesResidentMemory(t *testing.T) {
	d := distTestGraph(t, 2)
	c := d.Cluster()
	// Total resident across machines: sum over v of (2 + deg(v)) = 2n + 2m.
	total := 0
	for m := 0; m < c.Machines(); m++ {
		total += c.Resident(m)
	}
	if want := 2*5 + 2*6; total != want {
		t.Fatalf("resident total = %d, want %d", total, want)
	}
}

func TestDistributeOrderMismatch(t *testing.T) {
	g := testGraph(t)
	c, err := NewCluster(Config{Machines: 2}, g.N()+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distribute(c, g); err == nil {
		t.Fatal("order mismatch accepted")
	}
}

func TestNotifyNeighbors(t *testing.T) {
	for _, machines := range []int{1, 2, 5} {
		d := distTestGraph(t, machines)
		marked := bitset.New(5)
		marked.Add(1)
		touched, err := d.NotifyNeighbors("n", marked, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 2, 3} // neighbors of 1
		if touched.Count() != len(want) {
			t.Fatalf("machines=%d: touched %v", machines, touched.Elements())
		}
		for _, v := range want {
			if !touched.Contains(v) {
				t.Fatalf("machines=%d: %d not touched", machines, v)
			}
		}
	}
}

func TestNotifyNeighborsRestricted(t *testing.T) {
	d := distTestGraph(t, 3)
	marked := bitset.New(5)
	marked.Add(1)
	restrict := bitset.New(5)
	restrict.Add(2) // only 2 may be notified
	touched, err := d.NotifyNeighbors("n", marked, restrict)
	if err != nil {
		t.Fatal(err)
	}
	if touched.Count() != 1 || !touched.Contains(2) {
		t.Fatalf("restricted touched = %v", touched.Elements())
	}
}

func TestExchangeActive(t *testing.T) {
	for _, machines := range []int{1, 3, 5} {
		d := distTestGraph(t, machines)
		active := bitset.New(5)
		for _, v := range []int{0, 1, 3} {
			active.Add(v)
		}
		nbrs, err := d.ExchangeActive("x", active, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Active subgraph on {0,1,3}: edges 0-1, 1-3.
		wantNbrs := map[int][]int32{0: {1}, 1: {0, 3}, 3: {1}}
		for _, v := range []int{0, 1, 3} {
			want := wantNbrs[v]
			got := nbrs.Of(v)
			if len(got) != len(want) {
				t.Fatalf("machines=%d: nbrs[%d] = %v, want %v", machines, v, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("machines=%d: nbrs[%d] = %v, want %v (order matters)", machines, v, got, want)
				}
			}
		}
		// Inactive vertices have no view.
		if len(nbrs.Of(2)) != 0 || len(nbrs.Of(4)) != 0 {
			t.Fatalf("machines=%d: inactive vertices got views", machines)
		}
	}
}

func TestExchangeActiveWithValues(t *testing.T) {
	d := distTestGraph(t, 2)
	active := bitset.New(5)
	active.Fill()
	vals := []int32{10, 11, 12, 13, 14}
	nbrs, err := d.ExchangeActive("x", active, vals)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		nbrVals := nbrs.ValsOf(v)
		if len(nbrs.Of(v)) != len(nbrVals) {
			t.Fatalf("misaligned values at %d", v)
		}
		for i, u := range nbrs.Of(v) {
			if nbrVals[i] != vals[u] {
				t.Fatalf("value for neighbor %d of %d = %d, want %d", u, v, nbrVals[i], vals[u])
			}
		}
	}
}

// randomDistGraph distributes a G(n, p)-style graph with n vertices over
// machines machines; vertices with no drawn edge stay isolated.
func randomDistGraph(t testing.TB, rng *rand.Rand, n, machines int, p float64) *DistGraph {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Machines: machines}, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distribute(c, g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestExchangeActiveMatchesReference compares the exchange's CSR result,
// with and without values, against per-vertex lists built straight from the
// graph: for every active v, its active neighbours in ascending order and
// their values; nothing for inactive v. It also pins the traffic: one or two
// words per (active vertex, neighbour) pair.
func TestExchangeActiveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(40)
		machines := 1 + trial%9
		d := randomDistGraph(t, rng, n, machines, rng.Float64()*0.3)
		g := d.Graph()
		active := bitset.New(n)
		density := rng.Intn(4) // 0: empty active set
		for v := 0; v < n; v++ {
			if rng.Intn(4) < density {
				active.Add(v)
			}
		}
		vals := make([]int32, n)
		for v := range vals {
			vals[v] = rng.Int31() - rng.Int31()
		}
		for _, withVals := range []bool{false, true} {
			var in []int32
			stride := int64(1)
			if withVals {
				in, stride = vals, 2
			}
			before := d.Cluster().Stats().Words
			adj, err := d.ExchangeActive("x", active, in)
			if err != nil {
				t.Fatal(err)
			}
			var wantWords int64
			for v := 0; v < n; v++ {
				var want, wantVals []int32
				if active.Contains(v) {
					wantWords += stride * int64(g.Degree(v))
					for _, u := range g.Neighbors(v) {
						if active.Contains(int(u)) {
							want = append(want, u)
							wantVals = append(wantVals, vals[u])
						}
					}
				}
				if !slices.Equal(adj.Of(v), want) {
					t.Fatalf("trial %d (n=%d, machines=%d, vals=%v): Of(%d) = %v, want %v", trial, n, machines, withVals, v, adj.Of(v), want)
				}
				switch {
				case !withVals && adj.ValsOf(v) != nil:
					t.Fatalf("trial %d: ValsOf(%d) = %v without values", trial, v, adj.ValsOf(v))
				case withVals && !slices.Equal(adj.ValsOf(v), wantVals):
					t.Fatalf("trial %d: ValsOf(%d) = %v, want %v", trial, v, adj.ValsOf(v), wantVals)
				}
			}
			if got := d.Cluster().Stats().Words - before; got != wantWords {
				t.Fatalf("trial %d: exchange sent %d words, want %d", trial, got, wantWords)
			}
		}
	}
}

// TestExchangeActiveAllocsIndependentOfEdges: the exchange allocates a fixed
// number of objects per machine (a count array and one send slab) and a
// fixed number for its CSR result, however many edges it carries. Growing
// per-destination buckets or per-vertex lists with append would make the
// count climb with the edge count.
func TestExchangeActiveAllocsIndependentOfEdges(t *testing.T) {
	const n, machines = 2048, 4
	for _, withVals := range []bool{false, true} {
		allocs := func(p float64) float64 {
			d := randomDistGraph(t, rand.New(rand.NewSource(1)), n, machines, p)
			active := bitset.New(n)
			active.Fill()
			var vals []int32
			if withVals {
				vals = make([]int32, n)
			}
			return testing.AllocsPerRun(10, func() {
				if _, err := d.ExchangeActive("x", active, vals); err != nil {
					t.Fatal(err)
				}
			})
		}
		sparse, dense := allocs(0.0005), allocs(0.02)
		if sparse != dense {
			t.Errorf("values=%v: exchange allocates %v objects on ~1k edges, %v on ~42k", withVals, sparse, dense)
		}
		t.Logf("values=%v: %v allocations per exchange", withVals, sparse)
	}
}

func TestGatherSubgraph(t *testing.T) {
	for _, machines := range []int{1, 2, 4} {
		d := distTestGraph(t, machines)
		include := bitset.New(5)
		for _, v := range []int{1, 2, 3} {
			include.Add(v)
		}
		sub, toOrig, err := d.GatherSubgraph("g", include)
		if err != nil {
			t.Fatal(err)
		}
		if sub.N() != 3 {
			t.Fatalf("machines=%d: sub n = %d", machines, sub.N())
		}
		// Induced edges on {1,2,3}: 1-2, 2-3, 1-3.
		if sub.M() != 3 {
			t.Fatalf("machines=%d: sub m = %d, want 3", machines, sub.M())
		}
		for i, orig := range toOrig {
			if orig != int32(i+1) {
				t.Fatalf("machines=%d: toOrig = %v", machines, toOrig)
			}
		}
	}
}

func TestGatherSubgraphChargesCoordinator(t *testing.T) {
	d := distTestGraph(t, 2)
	c := d.Cluster()
	before := c.Resident(0)
	include := bitset.New(5)
	include.Fill()
	sub, _, err := d.GatherSubgraph("g", include)
	if err != nil {
		t.Fatal(err)
	}
	want := before + sub.N() + 2*sub.M()
	if c.Resident(0) != want {
		t.Fatalf("coordinator resident = %d, want %d", c.Resident(0), want)
	}
}
