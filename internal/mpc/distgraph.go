package mpc

import (
	"fmt"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/graph"
)

// DistGraph is a graph block-partitioned across the cluster's machines:
// machine m holds the adjacency lists of the vertices in its Range. It
// provides the communication patterns the ruling-set algorithms are built
// from, with full bandwidth accounting.
type DistGraph struct {
	c *Cluster
	g *graph.Graph
}

// Distribute places g on the cluster and charges each machine's resident
// memory for its shard (2 + deg(v) words per local vertex v). The cluster
// must have been created with ground-set size g.N().
func Distribute(c *Cluster, g *graph.Graph) (*DistGraph, error) {
	if c.N() != g.N() {
		return nil, fmt.Errorf("mpc: cluster ground set %d != graph order %d", c.N(), g.N())
	}
	d := &DistGraph{c: c, g: g}
	for m := 0; m < c.Machines(); m++ {
		lo, hi := c.Range(m)
		words := 0
		for v := lo; v < hi; v++ {
			words += 2 + g.Degree(v)
		}
		if err := c.SetResident(m, words); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Cluster returns the underlying cluster.
func (d *DistGraph) Cluster() *Cluster { return d.c }

// Graph returns the underlying graph.
func (d *DistGraph) Graph() *graph.Graph { return d.g }

// NotifyNeighbors performs the core one-round exchange: the owner of every
// vertex in marked informs the owners of all its neighbors. It returns the
// set of vertices that have at least one marked neighbor. Bandwidth is one
// word per (marked vertex, neighbor) pair, batched into one message per
// machine pair. restrict, when non-nil, limits the notified neighbors to
// members of restrict (used to confine a phase to the active subgraph).
func (d *DistGraph) NotifyNeighbors(name string, marked, restrict *bitset.Set) (*bitset.Set, error) {
	touched := bitset.New(d.g.N())
	err := d.c.Step(name, func(x *Ctx) {
		s := newSlab(d.c.Machines())
		for s.pass() {
			for v := x.Lo; v < x.Hi; v++ {
				if !marked.Contains(v) {
					continue
				}
				for _, u := range d.g.Neighbors(v) {
					if restrict == nil || restrict.Contains(int(u)) {
						s.add(d.c.Owner(int(u)), uint64(u))
					}
				}
			}
		}
		s.send(x)
	})
	if err != nil {
		return nil, err
	}
	for m := 0; m < d.c.Machines(); m++ {
		for _, msg := range d.c.e.Drain(m) {
			for _, w := range msg.Payload {
				touched.Add(int(w))
			}
		}
	}
	return touched, nil
}

// GatherSubgraph ships the subgraph induced by include to machine 0 and
// returns it together with the mapping from subgraph ids back to original
// vertex ids. This is the final "solve the residual instance locally" step
// of sample-and-sparsify algorithms; machine 0's resident memory is charged
// for the shipped instance, so an over-dense residual graph trips the budget
// check exactly as it would overflow a real machine.
//
// Two rounds: included vertices first announce membership to the owners of
// their neighbors, then each edge with both endpoints included is sent to
// machine 0 by the owner of its smaller endpoint.
func (d *DistGraph) GatherSubgraph(name string, include *bitset.Set) (*graph.Graph, []int32, error) {
	nbrs, err := d.ExchangeActive(name+"/announce", include, nil)
	if err != nil {
		return nil, nil, err
	}
	parts, err := d.c.Gather(name+"/ship", func(x *Ctx) []uint64 {
		var payload []uint64
		for v := x.Lo; v < x.Hi; v++ {
			for _, u := range nbrs.Of(v) {
				if int(u) > v {
					payload = append(payload, uint64(uint32(v))<<32|uint64(uint32(u)))
				}
			}
		}
		return payload
	})
	if err != nil {
		return nil, nil, err
	}
	// Machine-0 local computation: decode, relabel, build.
	toOrig := make([]int32, 0, include.Count())
	toSub := make([]int32, d.g.N())
	for i := range toSub {
		toSub[i] = -1
	}
	include.ForEach(func(v int) bool {
		toSub[v] = int32(len(toOrig))
		toOrig = append(toOrig, int32(v))
		return true
	})
	var edges []graph.Edge
	for _, part := range parts {
		for _, w := range part {
			u := int32(w >> 32)
			v := int32(uint32(w))
			edges = append(edges, graph.Edge{U: toSub[u], V: toSub[v]})
		}
	}
	// Charge machine 0 for holding the residual instance (ids + edges).
	if err := d.c.AddResident(0, len(toOrig)+2*len(edges)); err != nil {
		return nil, nil, err
	}
	sub, err := graph.New(len(toOrig), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, toOrig, nil
}

// ExchangeActive performs the per-phase neighborhood exchange: the owner of
// every active vertex u announces u (and, when vals is non-nil, vals[u]) to
// the owners of all of u's neighbors. It returns, for every active vertex v,
// the ascending list of v's active neighbors and — when vals is non-nil —
// the aligned list of their announced values; inactive vertices have empty
// lists. One round; one or two words per (active vertex, neighbor) pair,
// batched per machine pair.
//
// The result is deterministic: inboxes are ordered by sender machine,
// senders scan their vertices and adjacency lists in ascending order, and
// vertex ownership is monotone in the vertex id.
func (d *DistGraph) ExchangeActive(name string, active *bitset.Set, vals []int32) (*graph.Adjacency, error) {
	return d.exchange(name, d.g, active, vals)
}

// exchange is ExchangeActive over the adjacency of g (which shares d's
// vertex set and partition); a nil active set means every vertex.
//
// Each machine sizes its sends in a counting pass, writes them into one
// exactly sized slab and hands every destination its share of the slab
// (see slab). The receiving side is a counting sort of the delivered words
// by target vertex into one CSR adjacency, which keeps each target's
// arrival order: sender machine, then sender vertex.
func (d *DistGraph) exchange(name string, g *graph.Graph, active *bitset.Set, vals []int32) (*graph.Adjacency, error) {
	withVals := vals != nil
	err := d.c.Step(name, func(x *Ctx) {
		s := newSlab(d.c.Machines())
		for s.pass() {
			for u := x.Lo; u < x.Hi; u++ {
				if active != nil && !active.Contains(u) {
					continue
				}
				for _, v := range g.Neighbors(u) {
					dst := d.c.Owner(int(v))
					s.add(dst, uint64(uint32(v))<<32|uint64(uint32(u)))
					if withVals {
						s.add(dst, uint64(uint32(vals[u])))
					}
				}
			}
		}
		s.send(x)
	})
	if err != nil {
		return nil, err
	}
	inboxes := make([][]Message, d.c.Machines())
	for m := range inboxes {
		inboxes[m] = d.c.e.Drain(m)
	}
	stride := 1
	if withVals {
		stride = 2
	}
	// Counting sort. v's count goes to off[v+2], so after the prefix sum
	// off[v+1] is v's first slot; filling advances it to v's end, which is
	// v+1's start, leaving off[:n+1] as the CSR offsets.
	n := g.N()
	off := make([]int32, n+2)
	for _, box := range inboxes {
		for _, msg := range box {
			p := msg.Payload
			for i := 0; i+stride <= len(p); i += stride {
				if v := int(p[i] >> 32); active == nil || active.Contains(v) {
					off[v+2]++
				}
			}
		}
	}
	for i := 2; i < len(off); i++ {
		off[i] += off[i-1]
	}
	nbrs := make([]int32, off[n+1])
	var nbrVals []int32
	if withVals {
		nbrVals = make([]int32, len(nbrs))
	}
	for _, box := range inboxes {
		for _, msg := range box {
			p := msg.Payload
			for i := 0; i+stride <= len(p); i += stride {
				v := int(p[i] >> 32)
				if active != nil && !active.Contains(v) {
					continue
				}
				at := off[v+1]
				off[v+1]++
				nbrs[at] = int32(uint32(p[i]))
				if withVals {
					nbrVals[at] = int32(uint32(p[i+1]))
				}
			}
		}
	}
	return graph.NewAdjacency(off[:n+1], nbrs, nbrVals), nil
}

// slab lays one machine's sends for a step out in a single word slab of
// exactly the size they need. The caller makes the same sequence of add
// calls in each of two passes: the first counts every destination's words,
// the second writes them at per-destination cursors. send then hands each
// destination its contiguous share through SendOwned. The shares are capped
// sub-slices of one allocation that the engine delivers as is, so nothing
// may write to the slab after send.
type slab struct {
	cur   []int // words counted per destination, then write cursors
	words []uint64
	phase int // 1 while counting, 2 while writing
}

func newSlab(machines int) slab {
	return slab{cur: make([]int, machines)}
}

// pass starts the next pass and reports whether there is one: it returns
// true twice, and before the second (writing) pass turns the counts into
// write cursors over one slab of their total.
func (s *slab) pass() bool {
	s.phase++
	if s.phase == 2 {
		total := 0
		for dst, k := range s.cur {
			s.cur[dst] = total
			total += k
		}
		s.words = make([]uint64, total)
	}
	return s.phase <= 2
}

// add counts w toward dst's share, or writes it there.
func (s *slab) add(dst int, w uint64) {
	if s.phase == 2 {
		s.words[s.cur[dst]] = w
	}
	s.cur[dst]++
}

// send delivers the filled slab: after the writing pass, cur[dst] is the
// end of dst's share and the start of dst+1's.
func (s *slab) send(x *Ctx) {
	lo := 0
	for dst, hi := range s.cur {
		if hi > lo {
			x.SendOwned(dst, s.words[lo:hi:hi])
		}
		lo = hi
	}
}
