package txn

import (
	"math/bits"

	"tmbp/internal/addr"
)

// AccessSet is the write half of the per-thread transaction log: one
// open-addressed, insertion-ordered set of chunk-granular accesses that
// replaces the Writes BlockSet, the WriteLog redo map, and the
// ownership-table footprint's slot map on the STM hot path. Each entry
// carries membership, permission bits, the table slot key, the release
// obligation, and the redo values for the chunk's words, so a transactional
// Write resolves with exactly one probe, and commit/release walk the dense
// entry array once in first-write order. The STM (internal/stm) keeps its
// reads in a log of its own: an entry is a chunk the transaction wrote.
//
// The set is built for zero steady-state allocation: the first
// InlineEntries accesses live in an inline array inside the AccessSet value
// (itself embedded in the thread descriptor), larger footprints spill to a
// growable power-of-two probe table, and Reset retires all entries by
// bumping a generation counter instead of deleting them one by one. After
// the first transaction that establishes capacity, Begin/Insert/Lookup/
// Reset never touch the heap.
//
// An AccessSet is owned by a single thread and is not safe for concurrent
// use (it is the paper's Section 2.1 "private per-thread log").
type AccessSet struct {
	n     int       // live entries (dense[:n])
	gen   uint32    // current generation; index slots from other generations are empty
	shift uint      // 64 - log2(len(index)): top-bits Fibonacci hash
	dense []Access  // entries in first-access order
	index []idxSlot // open-addressed probe table over dense, keyed by chunk
	// slotIndex is a second probe table keyed by ownership-table slot,
	// mapping each slot to its obligation-carrying entry. Only clients of
	// non-identity-slot tables (tagless) register entries here — identity
	// tables resolve slot ownership with the primary chunk probe — so for
	// the common case it stays empty and costs nothing.
	slotIndex []idxSlot
	// slotUsed latches the first RecordSlotOwner call. While false (every
	// identity-slot client, forever), growIndex skips slot re-registration
	// entirely — at range-scan footprints the set doubles many times and
	// re-recording thousands of entries nobody will ever probe is pure
	// waste. Sticky across Reset: a thread's table kind never changes.
	slotUsed bool

	denseInline [InlineEntries]Access
	indexInline [2 * InlineEntries]idxSlot
	slotInline  [2 * InlineEntries]idxSlot
}

// InlineEntries is the number of accesses the set holds without heap
// allocation. Most transactions in the paper's workloads (W ≤ 40, and the
// microbenchmarks' 1-2 blocks) fit inline.
const InlineEntries = 16

// Permission and obligation bits of one access entry. PermWrite marks a
// chunk the transaction wrote, PermRead one it read: the runtime keeps its
// reads in a log of its own, so an entry carries PermRead only beside
// PermWrite: the written chunk's memory words have been checked against the
// transaction's snapshot. SlotWrite marks the entry that carries the release
// obligation for the chunk's table slot (the old Footprint holding). Under
// tagless tables several aliasing chunks share one slot, so only the first
// entry to write-acquire a slot carries SlotWrite.
const (
	PermRead  uint8 = 1 << 0 // chunk was read by the transaction
	PermWrite uint8 = 1 << 1 // chunk was written by the transaction
	SlotWrite uint8 = 1 << 2 // entry holds exclusive ownership of its slot
)

// Access is one chunk-granular entry of the unified log: a chunk the
// transaction wrote, with its redo values, its table slot and release
// obligation.
type Access struct {
	Chunk addr.Block                               // the accessed chunk: the set key
	Slot  uint64                                   // the ownership-table slot key for Chunk
	Hnd   uint64                                   // table record handle (otable.Handle) backing the slot obligation; 0 = none
	Word  uint64                                   // memory word index of the chunk's word 0 (valid when WMask != 0)
	Vals  [addr.BlockBytes / addr.WordBytes]uint64 // redo values of the words in WMask
	Idx   int32                                    // this entry's position in the dense array
	WMask uint8                                    // which Vals are live speculative writes
	Perm  uint8                                    // the permission bits above
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
	s.slotIndex = s.slotInline[:]
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
// returns it zeroed except for Chunk and Slot (set to the identity;
// callers override Slot for non-identity tables) and Vals, which keeps
// whatever the reused storage held: with WMask empty no word of it is live,
// and the caller fills the words it marks. Pointers returned by
// earlier Lookup/At calls are invalidated if the set grows.
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
	e.Chunk, e.Slot, e.Hnd, e.Word = chunk, uint64(chunk), 0, 0
	e.Idx, e.WMask, e.Perm = int32(s.n), 0, 0
	s.n++
	return e
}

// RecordSlotOwner registers e — which must carry the SlotWrite obligation and
// have its final Slot value — as its slot's owner, making it findable by
// FindSlotOwner in one probe. Clients of identity-slot tables never call
// this (nor FindSlotOwner), so the slot index stays untouched for them.
// Obligations never move between entries within a transaction, so an entry
// is registered at most once.
func (s *AccessSet) RecordSlotOwner(e *Access) {
	s.slotUsed = true
	mask := uint64(len(s.slotIndex) - 1)
	h := (e.Slot * fibMult) >> s.shift
	for {
		sl := &s.slotIndex[h]
		if sl.gen != s.gen {
			*sl = idxSlot{gen: s.gen, idx: e.Idx}
			return
		}
		h = (h + 1) & mask
	}
}

// FindSlotOwner returns the index of the entry holding the release
// obligation for slot, or -1, with one probe of the slot index. Only
// tagless tables — where SlotOf is not the identity and aliasing chunks
// share slots — ever consult this; identity-slot tables resolve ownership
// with the primary Lookup probe.
func (s *AccessSet) FindSlotOwner(slot uint64) int {
	if s.n == 0 {
		return -1
	}
	mask := uint64(len(s.slotIndex) - 1)
	h := (slot * fibMult) >> s.shift
	for {
		sl := s.slotIndex[h]
		if sl.gen != s.gen {
			return -1
		}
		if s.dense[sl.idx].Slot == slot {
			return int(sl.idx)
		}
		h = (h + 1) & mask
	}
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
		for i := range s.slotIndex {
			s.slotIndex[i] = idxSlot{}
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

// growIndex doubles both probe tables (keeping load factor ≤ 1/2) and
// relinks the live entries. Obligation-carrying entries are re-recorded in
// the slot index only when some owner was ever registered (slotUsed):
// identity-slot clients never probe the slot index, so re-registering their
// entries at every doubling of a multi-hundred-entry scan footprint would
// be wasted work. Both tables still grow in lockstep — FindSlotOwner's
// probe arithmetic shares shift with the primary index.
func (s *AccessSet) growIndex() {
	s.index = make([]idxSlot, 2*len(s.index))
	s.slotIndex = make([]idxSlot, 2*len(s.slotIndex))
	s.shift--
	for i := 0; i < s.n; i++ {
		e := &s.dense[i]
		s.link(e.Chunk, int32(i))
		if s.slotUsed && e.Perm&SlotWrite != 0 {
			s.RecordSlotOwner(e)
		}
	}
}

// growDense doubles the dense entry array.
func (s *AccessSet) growDense() {
	grown := make([]Access, 2*len(s.dense))
	copy(grown, s.dense[:s.n])
	s.dense = grown
}
