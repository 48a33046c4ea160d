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
		buckets := make([][]uint64, d.c.Machines())
		for v := x.Lo; v < x.Hi; v++ {
			if !marked.Contains(v) {
				continue
			}
			for _, u := range d.g.Neighbors(v) {
				if restrict != nil && !restrict.Contains(int(u)) {
					continue
				}
				dst := d.c.Owner(int(u))
				buckets[dst] = append(buckets[dst], uint64(u))
			}
		}
		for dst, payload := range buckets {
			if len(payload) > 0 {
				x.SendOwned(dst, payload)
			}
		}
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
	nbrs, _, err := d.ExchangeActive(name+"/announce", include, nil)
	if err != nil {
		return nil, nil, err
	}
	parts, err := d.c.Gather(name+"/ship", func(x *Ctx) []uint64 {
		var payload []uint64
		for v := x.Lo; v < x.Hi; v++ {
			if !include.Contains(v) {
				continue
			}
			for _, u := range nbrs[v] {
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
	words := 0
	for _, part := range parts {
		words += len(part)
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
// the aligned list of their announced values. One round; one or two words
// per (active vertex, neighbor) pair, batched per machine pair.
//
// Both returned structures are deterministic: inboxes are ordered by sender
// machine, senders scan their vertices and adjacency lists in ascending
// order, and vertex ownership is monotone in the vertex id.
func (d *DistGraph) ExchangeActive(name string, active *bitset.Set, vals []int32) (nbrs, nbrVals [][]int32, err error) {
	withVals := vals != nil
	err = d.c.Step(name, func(x *Ctx) {
		buckets := make([][]uint64, d.c.Machines())
		for u := x.Lo; u < x.Hi; u++ {
			if !active.Contains(u) {
				continue
			}
			for _, v := range d.g.Neighbors(u) {
				dst := d.c.Owner(int(v))
				word := uint64(uint32(v))<<32 | uint64(uint32(u))
				if withVals {
					buckets[dst] = append(buckets[dst], word, uint64(uint32(vals[u])))
				} else {
					buckets[dst] = append(buckets[dst], word)
				}
			}
		}
		for dst, payload := range buckets {
			if len(payload) > 0 {
				x.SendOwned(dst, payload)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	nbrs = make([][]int32, d.g.N())
	if withVals {
		nbrVals = make([][]int32, d.g.N())
	}
	stride := 1
	if withVals {
		stride = 2
	}
	for m := 0; m < d.c.Machines(); m++ {
		for _, msg := range d.c.e.Drain(m) {
			for i := 0; i+stride-1 < len(msg.Payload); i += stride {
				word := msg.Payload[i]
				v := int32(word >> 32)
				u := int32(uint32(word))
				if !active.Contains(int(v)) {
					continue
				}
				nbrs[v] = append(nbrs[v], u)
				if withVals {
					nbrVals[v] = append(nbrVals[v], int32(uint32(msg.Payload[i+1])))
				}
			}
		}
	}
	return nbrs, nbrVals, nil
}
