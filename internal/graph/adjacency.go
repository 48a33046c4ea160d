package graph

// Adjacency is a family of per-vertex int32 lists over the vertices [0, n)
// in compressed sparse row form, with an optional value list aligned to
// them: vertex v's list is Of(v) and its values are ValsOf(v). It is the
// result layout of the simulators' neighbourhood exchanges (a vertex's
// active neighbours and the values they announced), one flat array per
// field instead of one slice per vertex.
type Adjacency struct {
	off  []int32 // len n+1
	nbrs []int32 // len off[n]
	vals []int32 // nil, or aligned with nbrs
}

// NewAdjacency wraps CSR arrays without copying: vertex v's list is
// nbrs[off[v]:off[v+1]]. off must have length n+1, start at 0, be
// non-decreasing and end at len(nbrs); vals is nil or as long as nbrs.
func NewAdjacency(off, nbrs, vals []int32) *Adjacency {
	return &Adjacency{off: off, nbrs: nbrs, vals: vals}
}

// Of returns vertex v's list. The slice aliases the adjacency; callers must
// not modify it.
func (a *Adjacency) Of(v int) []int32 {
	return a.nbrs[a.off[v]:a.off[v+1]:a.off[v+1]]
}

// ValsOf returns the values aligned with Of(v), or nil when the adjacency
// carries no values.
func (a *Adjacency) ValsOf(v int) []int32 {
	if a.vals == nil {
		return nil
	}
	return a.vals[a.off[v]:a.off[v+1]:a.off[v+1]]
}
