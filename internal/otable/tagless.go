package otable

import (
	"fmt"
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// Tagless is the ownership table organization of Figure 1: N entries, each a
// single word holding {mode, owner-or-count}, indexed by hashing the block
// address. The address is not stored, so permissions are granted at the
// granularity of *all* addresses mapping to an entry, and any cross-
// transaction overlap on an entry involving a write is (conservatively) a
// conflict — whether or not the underlying addresses are equal.
//
// Entries are manipulated with compare-and-swap, so the table is safe for
// concurrent use without locks, mirroring the low-overhead motivation the
// paper ascribes to tagless designs.
type Tagless struct {
	stats   counters // first field, see counters; also yields Occupied
	h       hash.Func
	entries []atomic.Uint64
	// vers holds one commit stamp per entry (see version.go): invisible
	// readers validate against it and the entry's mode instead of acquiring.
	// Aliasing blocks share an entry and so a version: an aliased commit
	// costs readers a spurious validation failure, never a wrong value.
	vers []atomic.Uint64
}

// Entry word layout:
//
//	bits 62..63  mode (Free=0, Read=1, Write=2)
//	bits  0..31  owner TxID (Write) or sharer count (Read)
const (
	modeShift   = 62
	payloadMask = (1 << 32) - 1
)

func packEntry(m Mode, payload uint32) uint64 {
	return uint64(m)<<modeShift | uint64(payload)
}

func unpackEntry(e uint64) (Mode, uint32) {
	return Mode(e >> modeShift), uint32(e & payloadMask)
}

// NewTagless builds a tagless table sized and indexed by h.
func NewTagless(h hash.Func) *Tagless {
	return &Tagless{
		h:       h,
		entries: make([]atomic.Uint64, h.N()),
		vers:    make([]atomic.Uint64, h.N()),
	}
}

// Kind implements Table.
func (t *Tagless) Kind() string { return "tagless" }

// N implements Table.
func (t *Tagless) N() uint64 { return t.h.N() }

// SlotOf implements Table: the slot is the hashed entry index, so aliasing
// blocks share a slot.
func (t *Tagless) SlotOf(b addr.Block) uint64 { return t.h.Index(b) }

// SlotsAreBlocks implements Table: aliasing blocks share a slot.
func (t *Tagless) SlotsAreBlocks() bool { return false }

// entryOf resolves the handle of an entry tx claims to hold through b to
// the entry's index. It panics on NoHandle, before any state is touched.
func (t *Tagless) entryOf(op string, tx TxID, b addr.Block, h Handle) uint64 {
	if h == NoHandle {
		noHandle(op, tx, b)
	}
	return uint64(h) - 1
}

// AcquireReadH implements Table. The handle is the entry index plus one
// (entries have no generations to validate — the slot itself is the
// record), so handle-taking operations merely skip the address re-hash.
func (t *Tagless) AcquireReadH(tx TxID, b addr.Block) (Outcome, ConflictInfo, Handle) {
	idx := t.h.Index(b)
	out, ci := t.acquireReadIdx(idx, tx)
	if out.Conflict() {
		return out, ci, NoHandle
	}
	return out, ci, Handle(idx + 1)
}

// AcquireWriteH implements Table. heldReads is the number of read shares tx
// already holds on b's entry, through handle h; if it equals the entry's
// full sharer count the acquire is a private upgrade, otherwise foreign
// readers block it. Only an acquire with no held reads hashes b.
func (t *Tagless) AcquireWriteH(tx TxID, b addr.Block, heldReads uint32, h Handle) (Outcome, ConflictInfo, Handle) {
	var idx uint64
	if heldReads == 0 {
		idx = t.h.Index(b)
	} else {
		idx = t.entryOf("upgrade", tx, b, h)
	}
	out, ci := t.acquireWriteIdx(idx, tx, heldReads)
	if out.Conflict() {
		return out, ci, NoHandle
	}
	return out, ci, Handle(idx + 1)
}

// ReleaseReadH implements Table.
func (t *Tagless) ReleaseReadH(tx TxID, b addr.Block, h Handle) {
	t.releaseReadIdx(t.entryOf("ReleaseRead", tx, b, h), tx)
}

// ReleaseWriteH implements Table: the abort-path release, which publishes no
// stamp (memory was never mutated, so the old stamp still describes it).
func (t *Tagless) ReleaseWriteH(tx TxID, b addr.Block, h Handle) {
	t.releaseWriteIdx(t.entryOf("ReleaseWrite", tx, b, h), tx, 0)
}

// acquireReadIdx is the read acquire on a precomputed entry index. A denial
// reports the owner read from the very entry word that decided it.
func (t *Tagless) acquireReadIdx(idx uint64, tx TxID) (Outcome, ConflictInfo) {
	e, c := &t.entries[idx], t.stats.at(idx)
	for {
		old := e.Load()
		mode, payload := unpackEntry(old)
		switch mode {
		case Free:
			if e.CompareAndSwap(old, packEntry(Read, 1)) {
				c.readOpens.Add(1)
				return Granted, NoConflict
			}
		case Read:
			if e.CompareAndSwap(old, packEntry(Read, payload+1)) {
				c.reads.Add(1)
				return Granted, NoConflict
			}
		case Write:
			if TxID(payload) == tx {
				// Exclusive ownership subsumes the read.
				c.reads.Add(1)
				return AlreadyHeld, NoConflict
			}
			c.conflicts.Add(1)
			return ConflictWriter, WriterConflict(TxID(payload))
		}
	}
}

// acquireWriteIdx is the write acquire on a precomputed entry index. A denial
// reports the owning writer, or the count of foreign sharers (the entry's
// sharer count minus the caller's own shares). The caller's heldReads > 0
// shares pin the entry in Read mode, so any other state is a caller
// bookkeeping bug and panics.
func (t *Tagless) acquireWriteIdx(idx uint64, tx TxID, heldReads uint32) (Outcome, ConflictInfo) {
	e, c := &t.entries[idx], t.stats.at(idx)
	for {
		old := e.Load()
		mode, payload := unpackEntry(old)
		if heldReads > 0 && (mode != Read || heldReads > payload) {
			panic(fmt.Sprintf("otable: tagless entry is %s/%d but tx %d claims %d held reads",
				mode, payload, tx, heldReads))
		}
		switch mode {
		case Free:
			if e.CompareAndSwap(old, packEntry(Write, uint32(tx))) {
				c.writeOpens.Add(1)
				return Granted, NoConflict
			}
		case Read:
			if heldReads == payload {
				// Every current sharer is the caller: upgrade in place.
				if e.CompareAndSwap(old, packEntry(Write, uint32(tx))) {
					c.upgrades.Add(1)
					return Upgraded, NoConflict
				}
				continue
			}
			c.conflicts.Add(1)
			return ConflictReaders, ReadersConflict(payload - heldReads)
		case Write:
			if TxID(payload) == tx {
				c.writes.Add(1)
				return AlreadyHeld, NoConflict
			}
			c.conflicts.Add(1)
			return ConflictWriter, WriterConflict(TxID(payload))
		}
	}
}

// releaseReadIdx is the read release on a precomputed entry index.
func (t *Tagless) releaseReadIdx(idx uint64, tx TxID) {
	e, c := &t.entries[idx], t.stats.at(idx)
	for {
		old := e.Load()
		mode, payload := unpackEntry(old)
		if mode != Read || payload == 0 {
			panic(fmt.Sprintf("otable: ReleaseRead by tx %d on %s entry", tx, mode))
		}
		next, n := packEntry(Read, payload-1), &c.releases
		if payload == 1 {
			next, n = packEntry(Free, 0), &c.closes
		}
		if e.CompareAndSwap(old, next) {
			n.Add(1)
			return
		}
	}
}

// releaseWriteIdx releases write ownership of entry idx. Owner and mode are
// validated from the entry word before the stamp is touched, so a release by
// anyone but the owner panics without side effects; the owner is exclusive,
// so the entry cannot change between the validation and the CAS. The stamp
// is raised strictly before the entry-freeing CAS, so any acquire that
// succeeds, or sample that finds no writer, after the release observes it.
func (t *Tagless) releaseWriteIdx(idx uint64, tx TxID, stamp uint64) {
	e := &t.entries[idx]
	old := e.Load()
	if mode, payload := unpackEntry(old); mode != Write || TxID(payload) != tx {
		panic(fmt.Sprintf("otable: ReleaseWrite by tx %d on entry %s/owner=%d", tx, mode, payload))
	}
	verRaise(&t.vers[idx], stamp)
	if !e.CompareAndSwap(old, packEntry(Free, 0)) {
		panic(fmt.Sprintf("otable: ReleaseWrite by tx %d raced another release of its entry", tx))
	}
	t.stats.at(idx).closes.Add(1)
}

// SampleVersion implements Table: one hash, then the entry word (a writer is
// active exactly while its mode is Write) and, after it, the stamp.
func (t *Tagless) SampleVersion(b addr.Block) (uint64, bool) {
	idx := t.h.Index(b)
	mode, _ := unpackEntry(t.entries[idx].Load())
	return t.vers[idx].Load(), mode == Write
}

// ReleaseWriteV implements Table.
func (t *Tagless) ReleaseWriteV(tx TxID, b addr.Block, h Handle, stamp uint64) {
	t.releaseWriteIdx(t.entryOf("ReleaseWrite", tx, b, h), tx, stamp)
}

// StampVersion implements Table.
func (t *Tagless) StampVersion(b addr.Block, stamp uint64) {
	verRaise(&t.vers[t.h.Index(b)], stamp)
}

// Occupied implements Table: the number of held entries, derived from the
// open/close event counters (see counters.occupied).
func (t *Tagless) Occupied() uint64 { return t.stats.occupied() }

// Stats implements Table.
func (t *Tagless) Stats() Stats { return t.stats.snapshot() }

// Reset implements Table.
func (t *Tagless) Reset() {
	for i := range t.entries {
		t.entries[i].Store(0)
	}
	for i := range t.vers {
		t.vers[i].Store(0)
	}
	t.stats.reset()
}

// EntryState reports the mode and payload of entry i, for tests and
// diagnostics.
func (t *Tagless) EntryState(i uint64) (Mode, uint32) {
	return unpackEntry(t.entries[i].Load())
}
