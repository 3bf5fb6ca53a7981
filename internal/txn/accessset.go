// Package txn provides the per-thread transaction log the paper describes
// in Section 2.1: "each thread executing transactions maintains a (private)
// per-thread log that tracks the state of the transaction (e.g., active,
// committed) and the transaction's footprint including speculative values
// for writes." The STM (internal/stm) keeps the attempt's state and its
// reads itself; this package holds the write half, the AccessSet.
//
// The set is allocation-friendly: it is reused across attempts and
// transactions, so steady-state execution allocates nothing on the fast
// path.
package txn

import (
	"math/bits"

	"tmbp/internal/addr"
)

// AccessSet is the write half of the per-thread transaction log: one
// open-addressed, insertion-ordered set of the chunks the transaction wrote,
// keyed by chunk. Each entry carries the release obligation for the chunk's
// table slot and the redo values for the chunk's words, so a transactional
// Write resolves with exactly one probe, and commit/release walk the dense
// entry array once in first-write order. Who holds a table slot is the
// table's record alone: under a tagless table aliasing chunks share a slot,
// and only the entry whose acquire was granted carries a handle to release.
// The STM keeps its reads in a log of its own.
//
// The set is built for zero steady-state allocation: the first
// InlineEntries accesses live in an inline array inside the AccessSet value
// (itself embedded in the STM thread), larger footprints spill to a
// growable power-of-two probe table, and Reset retires all entries by
// bumping a generation counter instead of deleting them one by one. After
// the first transaction that establishes capacity, Insert/Lookup/Reset
// never touch the heap.
//
// An AccessSet is owned by a single thread and is not safe for concurrent
// use (it is the paper's Section 2.1 "private per-thread log").
type AccessSet struct {
	n     int       // live entries (dense[:n])
	gen   uint32    // current generation; index slots from other generations are empty
	shift uint      // 64 - log2(len(index)): top-bits Fibonacci hash
	dense []Access  // entries in first-access order
	index []idxSlot // open-addressed probe table over dense, keyed by chunk

	denseInline [InlineEntries]Access
	indexInline [2 * InlineEntries]idxSlot
}

// InlineEntries is the number of accesses the set holds without heap
// allocation. Most transactions in the paper's workloads (W ≤ 40, and the
// microbenchmarks' 1-2 blocks) fit inline.
const InlineEntries = 16

// PermRead marks an entry whose chunk's memory words have been checked
// against the transaction's snapshot: a chunk read before its write, or one
// whose unwritten words the transaction has since read.
const PermRead uint8 = 1 << 0

// Access is one entry of the access set: a chunk the transaction wrote, with
// its redo values and its release obligation. The chunk's words are memory
// words Chunk<<3 to Chunk<<3+7.
type Access struct {
	Chunk addr.Block                               // the written chunk: the set key
	Hnd   uint64                                   // handle (otable.Handle) of the slot this entry must release; 0 = none
	Vals  [addr.BlockBytes / addr.WordBytes]uint64 // redo values of the words in WMask
	Idx   int32                                    // this entry's position in the dense array
	WMask uint8                                    // which Vals are live speculative writes
	Perm  uint8                                    // PermRead, or 0
}

// idxSlot is one probe-table slot: the dense index of an entry, valid only
// when its generation matches the set's.
type idxSlot struct {
	gen uint32
	idx int32
}

// fibMult is the 64-bit Fibonacci hashing multiplier (2^64 / φ).
const fibMult = 0x9E3779B97F4A7C15

// init wires the inline storage. Called lazily so the zero AccessSet works.
func (s *AccessSet) init() {
	s.dense = s.denseInline[:]
	s.index = s.indexInline[:]
	s.shift = uint(64 - bits.TrailingZeros(uint(len(s.index))))
	s.gen = 1
}

// Len returns the number of live entries.
func (s *AccessSet) Len() int { return s.n }

// At returns entry i in first-access order, 0 ≤ i < Len. The pointer is
// invalidated by the next Insert (the dense array may grow).
func (s *AccessSet) At(i int) *Access { return &s.dense[i] }

// Lookup returns the entry for chunk, or nil. One probe sequence; no
// allocation.
func (s *AccessSet) Lookup(chunk addr.Block) *Access {
	if s.n == 0 {
		return nil
	}
	mask := uint64(len(s.index) - 1)
	h := (uint64(chunk) * fibMult) >> s.shift
	for {
		sl := s.index[h]
		if sl.gen != s.gen {
			return nil
		}
		if e := &s.dense[sl.idx]; e.Chunk == chunk {
			return e
		}
		h = (h + 1) & mask
	}
}

// Insert adds a fresh entry for chunk — which must not be present — and
// returns it zeroed except for Chunk and Vals, which keeps whatever the
// reused storage held: with WMask empty no word of it is live, and the
// caller fills the words it marks. Pointers returned by earlier Lookup/At
// calls are invalidated if the set grows.
func (s *AccessSet) Insert(chunk addr.Block) *Access {
	if s.dense == nil {
		s.init()
	}
	if 2*(s.n+1) > len(s.index) {
		s.growIndex()
	}
	if s.n == len(s.dense) {
		s.growDense()
	}
	s.link(chunk, int32(s.n))
	e := &s.dense[s.n]
	e.Chunk, e.Hnd = chunk, 0
	e.Idx, e.WMask, e.Perm = int32(s.n), 0, 0
	s.n++
	return e
}

// Reset retires every entry by advancing the generation; storage and
// capacity are retained and nothing is freed or cleared entry-by-entry.
func (s *AccessSet) Reset() {
	s.n = 0
	s.gen++
	if s.gen == 0 { // uint32 wrap: lazily-invalidated slots must not resurrect
		for i := range s.index {
			s.index[i] = idxSlot{}
		}
		s.gen = 1
	}
}

// link records dense index idx for chunk in the probe table.
func (s *AccessSet) link(chunk addr.Block, idx int32) {
	mask := uint64(len(s.index) - 1)
	h := (uint64(chunk) * fibMult) >> s.shift
	for {
		sl := &s.index[h]
		if sl.gen != s.gen {
			*sl = idxSlot{gen: s.gen, idx: idx}
			return
		}
		h = (h + 1) & mask
	}
}

// growIndex doubles the probe table (keeping load factor ≤ 1/2) and relinks
// the live entries.
func (s *AccessSet) growIndex() {
	s.index = make([]idxSlot, 2*len(s.index))
	s.shift--
	for i := 0; i < s.n; i++ {
		s.link(s.dense[i].Chunk, int32(i))
	}
}

// growDense doubles the dense entry array.
func (s *AccessSet) growDense() {
	grown := make([]Access, 2*len(s.dense))
	copy(grown, s.dense[:s.n])
	s.dense = grown
}
