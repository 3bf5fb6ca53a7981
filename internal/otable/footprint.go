package otable

import "tmbp/internal/addr"

// Footprint tracks one transaction's holdings in an ownership table and
// centralizes the acquire/upgrade/release bookkeeping that every client of a
// Table otherwise has to repeat: the per-thread log the paper describes as
// tracking "the transaction's footprint".
//
// The keying adapts to the table organization through Table.SlotOf: holdings
// are per-entry for tagless tables (a transaction that touches two aliasing
// blocks holds one read share on one slot) and per-block for tagged tables.
// Each holding keeps the handle its acquire returned, as the STM's access
// set does, and is upgraded and released through it.
//
// A Footprint is owned by a single transaction and is not safe for
// concurrent use, matching the paper's private per-thread logs.
type Footprint struct {
	tab   Table
	tx    TxID
	slots map[uint64]*holding
	order []uint64 // slot keys in first-acquire order, for deterministic release
}

// holding is the transaction's permission state on one slot.
type holding struct {
	block addr.Block // representative block; any block mapping to the slot works for release
	hnd   Handle     // the handle the slot's acquire returned
	reads uint32     // read shares held
	write bool       // exclusive ownership held
}

// NewFootprint returns an empty footprint for transaction tx on tab.
func NewFootprint(tab Table, tx TxID) *Footprint {
	return &Footprint{tab: tab, tx: tx, slots: make(map[uint64]*holding)}
}

// Slots returns the number of distinct slots held.
func (f *Footprint) Slots() int { return len(f.slots) }

// Holds reports whether the footprint has any permission on b's slot, and
// whether that permission is exclusive.
func (f *Footprint) Holds(b addr.Block) (held, exclusive bool) {
	h, ok := f.slots[f.tab.SlotOf(b)]
	if !ok {
		return false, false
	}
	return true, h.write
}

// Read acquires (or reuses) read permission on b. It returns the table's
// outcome; on a conflict no state changes.
func (f *Footprint) Read(b addr.Block) Outcome {
	slot := f.tab.SlotOf(b)
	if h, ok := f.slots[slot]; ok && (h.write || h.reads > 0) {
		// Fast path: we already hold permission covering a read. For the
		// tagless table a second *distinct* block mapping here still works
		// under our existing share — no table traffic needed. (Acquiring an
		// extra share would also be correct; holding one is cheaper and
		// matches how the paper's STMs consult their logs first.)
		return AlreadyHeld
	}
	out, _, hnd := f.tab.AcquireReadH(f.tx, b)
	switch out {
	case Granted:
		f.add(slot, b, hnd).reads++
	case AlreadyHeld:
		// The table says we already hold covering permission (an exclusive
		// write on the slot) even though this footprint had no record — this
		// only happens when the slot write was registered under another
		// block aliasing to it, which the fast path above already covers.
		// Record nothing: the release obligation already exists.
	}
	return out
}

// Write acquires (or upgrades to) exclusive permission on b.
func (f *Footprint) Write(b addr.Block) Outcome {
	slot := f.tab.SlotOf(b)
	h := f.slots[slot]
	if h != nil && h.write {
		return AlreadyHeld
	}
	var heldReads uint32
	var held Handle
	if h != nil {
		heldReads, held = h.reads, h.hnd
	}
	out, _, hnd := f.tab.AcquireWriteH(f.tx, b, heldReads, held)
	switch out {
	case Granted:
		f.add(slot, b, hnd).write = true
	case Upgraded:
		h.reads = 0
		h.write = true
		h.block = b
	case AlreadyHeld:
		// As in Read: covering exclusive permission acquired via an alias.
	}
	return out
}

// add returns the holding for slot, creating it with representative block b
// and handle hnd.
func (f *Footprint) add(slot uint64, b addr.Block, hnd Handle) *holding {
	h, ok := f.slots[slot]
	if !ok {
		h = &holding{block: b, hnd: hnd}
		f.slots[slot] = h
		f.order = append(f.order, slot)
	}
	return h
}

// ReleaseAll returns every held permission to the table through its handle
// and empties the footprint, in first-acquire order. It is used both on
// commit and on abort: in this metadata-centric model the two differ only in
// what the STM does with its redo log, not in ownership-table traffic, so a
// write publishes no stamp.
func (f *Footprint) ReleaseAll() {
	for _, slot := range f.order {
		h := f.slots[slot]
		if h.write {
			f.tab.ReleaseWriteV(f.tx, h.block, h.hnd, 0)
		}
		for i := uint32(0); i < h.reads; i++ {
			f.tab.ReleaseReadH(f.tx, h.block, h.hnd)
		}
		delete(f.slots, slot)
	}
	f.order = f.order[:0]
}

// Reset abandons all bookkeeping without touching the table. Only valid
// after the table itself has been Reset.
func (f *Footprint) Reset() {
	for k := range f.slots {
		delete(f.slots, k)
	}
	f.order = f.order[:0]
}
