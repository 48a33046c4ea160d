package rulingset

import (
	"github.com/rulingset/mprs/internal/hash"
)

// markState tracks, incrementally across conditional-expectation chunks, the
// mark distribution induced by an AND-of-linear-bits family under a
// partially fixed seed. It exploits the segment structure of the seed to
// make every conditional probability O(1):
//
//   - segments strictly before the fixed frontier are fully determined, so a
//     vertex's contribution from them collapses to an "alive" predicate
//     (every fixed segment evaluated to 1), summarized per vertex by the
//     index of its first zero segment;
//   - at most one segment is partially fixed at any time (chunks are aligned
//     to segment boundaries), and its conditional law under every candidate
//     extension of the chunk is a function of at most two parities (see
//     chunkEval, which evaluates all candidates in one pass);
//   - fully free segments contribute exactly 1/2 per marginal bit and 1/4
//     per pairwise-joint bit.
//
// Mark probabilities are per-vertex: vertex v is marked with probability
// 2^-j(v), realized as the AND of the first j(v) linear bits of the shared
// stack, which keeps distinct-vertex marks pairwise independent even with
// heterogeneous probabilities.
type markState struct {
	fam *hash.Bits
	// firstZero[v] is the smallest fully-fixed segment t with X_t(v) = 0, or
	// fam.NBits() if all fixed segments evaluated to 1.
	firstZero []int32
	// fixedSegs counts fully committed segments.
	fixedSegs int
}

func newMarkState(fam *hash.Bits, n int) *markState {
	ms := &markState{
		fam:       fam,
		firstZero: make([]int32, n),
	}
	sentinel := int32(fam.NBits())
	for i := range ms.firstZero {
		ms.firstZero[i] = sentinel
	}
	return ms
}

// sync advances the fully-fixed frontier to match the committed prefix of s,
// updating the per-vertex first-zero indices for newly completed segments.
// Must be called single-threaded (the derandomizer's OnChunk hook and after
// the final commit).
func (ms *markState) sync(s *hash.Seed) {
	segW := ms.fam.SegWidth()
	newFull := s.Fixed() / segW
	if newFull > ms.fam.NBits() {
		newFull = ms.fam.NBits()
	}
	sentinel := int32(ms.fam.NBits())
	for t := ms.fixedSegs; t < newFull; t++ {
		for v := range ms.firstZero {
			if ms.firstZero[v] != sentinel {
				continue
			}
			if law := ms.fam.BitLaw(s, t, v); law.Determined && law.Value == 0 {
				ms.firstZero[v] = int32(t)
			}
		}
	}
	ms.fixedSegs = newFull
}

// dead reports whether some fully fixed segment among v's first j already
// evaluated to 0, so every mark term of v vanishes for every candidate.
func (ms *markState) dead(v, j int) bool {
	return int(ms.firstZero[v]) < minInt(ms.fixedSegs, j)
}

// marked reports the realized mark of v under a fully fixed, synced seed.
func (ms *markState) marked(v, j int) bool {
	return int(ms.firstZero[v]) >= j
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
