package rulingset

import (
	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/mpc"
)

// registerCheckpoint exposes a driver's mutable vertex sets to the cluster's
// superstep recovery (see mpc.Checkpointer): machine m's snapshot is the
// concatenation of each set's PackRange over the machine's vertex range, and
// Restore unpacks the same layout back. Registration is a no-op unless
// checkpointing is needed — for crash recovery (a fault plan is enabled),
// durable persistence (a checkpoint sink is attached) or a resume — so
// plain runs pay nothing.
//
// The drivers register every set they mutate between supersteps (active and
// candidate sets for sample-and-sparsify, active and membership sets for
// Luby); anything else a driver holds is either immutable for the run or
// recomputed from these sets each iteration.
func registerCheckpoint(c *mpc.Cluster, o Options, sets ...*bitset.Set) error {
	if o.CheckpointEvery <= 0 {
		return nil
	}
	if !o.Faults.Enabled() && o.CheckpointSink == nil && o.Resume == nil {
		return nil
	}
	perRange := func(lo, hi int) int { return (hi - lo + 63) / 64 }
	return c.SetCheckpointer(mpc.FuncCheckpointer{
		SnapshotFn: func(m int) []uint64 {
			lo, hi := c.Range(m)
			out := make([]uint64, 0, len(sets)*perRange(lo, hi))
			for _, s := range sets {
				out = append(out, s.PackRange(lo, hi)...)
			}
			return out
		},
		RestoreFn: func(m int, data []uint64) {
			lo, hi := c.Range(m)
			per := perRange(lo, hi)
			for i, s := range sets {
				a, b := i*per, (i+1)*per
				if a > len(data) {
					a = len(data)
				}
				if b > len(data) {
					b = len(data)
				}
				s.UnpackRange(lo, hi, data[a:b])
			}
		},
	})
}
