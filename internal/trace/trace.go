// Package trace generates the synthetic memory-address streams that stand
// in for the paper's proprietary trace inputs:
//
//   - Warehouse streams replace the SPECJBB2005 4-warehouse address traces
//     used for the aliasing study (Section 2.2, Figure 2). They model
//     per-thread Java-style heaps: object-granularity spatial locality,
//     skewed object reuse, power-of-two-aligned per-thread arenas (the
//     source of the alias floor that survives very large ownership tables),
//     and a shared read-mostly region.
//
//   - Profile streams replace the SPEC2000 integer benchmark traces used
//     for the HTM-overflow study (Section 2.3, Figure 3). They model
//     sequential code: a hot stack, sequential scans, pointer chasing over
//     a heap, and strided walks that concentrate on a few cache sets, with
//     per-benchmark parameter profiles calibrated to land the suite
//     averages near the paper's anchors.
//
// All streams are deterministic functions of their seed.
package trace

import "tmbp/internal/addr"

// Access is one memory reference at cache-block granularity.
type Access struct {
	// Block is the cache block touched.
	Block addr.Block
	// Write marks stores; reads otherwise.
	Write bool
	// Instrs is the number of dynamic instructions attributed to this
	// access (the access itself plus non-memory instructions since the
	// previous access). Warehouse streams set it to 1.
	Instrs int
}

// Stream produces an unbounded sequence of accesses.
type Stream interface {
	// Next returns the stream's next access. Streams are infinite.
	Next() Access
}

// Take materializes the next n accesses of a stream.
func Take(s Stream, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// WriteFraction returns the fraction of accesses that are writes.
func WriteFraction(accesses []Access) float64 {
	if len(accesses) == 0 {
		return 0
	}
	w := 0
	for _, a := range accesses {
		if a.Write {
			w++
		}
	}
	return float64(w) / float64(len(accesses))
}
