package otable

import "sync/atomic"

// Version words are what Table.SampleVersion, ReleaseWriteV and StampVersion
// operate on: one commit version per first-level cell, letting read-only
// transactions validate by version comparison instead of ever acquiring
// read ownership — the invisible-reader fast path in internal/stm.
//
// Each first-level cell (table entry for the tagless organization, bucket
// for the tagged and sharded ones) carries one version word alongside its
// ownership state, packed as
//
//	bits 16..63  commit stamp — the highest STM epoch-clock value any
//	             writer of the cell has published at release
//	bits  0..15  active-writer count — exclusive holds currently live
//	             anywhere in the cell
//
// The count is maintained by the table itself: every transition that hands
// out a new exclusive hold (a write grant or a read→write upgrade)
// increments it, and every write release decrements it. Committing writers
// release through ReleaseWriteV, which folds the stamp publication and the
// decrement into one CAS ordered before the ownership-releasing CAS, so an
// observer that can acquire (or re-read) the cell after a writer's release
// is guaranteed to see that writer's stamp. Stamps are raised monotonically
// (never overwritten downward): cells are shared by aliasing blocks, and a
// slow writer publishing an old epoch after a fast one must not make the
// cell look older than it is.
//
// A reader validates a cell with two SampleVersion calls bracketing its
// memory load: if neither sample shows an active writer and both return the
// same stamp, the value read is the one published by that stamp's commit.
// Blocks that alias into one cell share its version, so an aliased commit
// costs the reader only a spurious validation failure — the same
// birthday-paradox false-sharing the paper quantifies for ownership, never
// a wrong value.

// Version word layout shared by all organizations.
const (
	verStampShift = 16
	verCountMask  = (1 << verStampShift) - 1
)

// verEnter counts a new exclusive hold into the cell.
func verEnter(v *atomic.Uint64) { v.Add(1) }

// verPublish removes one exclusive hold and raises the stamp to at least
// stamp. The caller must currently be counted (count >= 1). Stamp 0 raises
// nothing: that is the abort-path release, where memory was never mutated
// so the old stamp still describes it.
func verPublish(v *atomic.Uint64, stamp uint64) {
	for {
		old := v.Load()
		ns := stamp
		if os := old >> verStampShift; os > ns {
			ns = os
		}
		if v.CompareAndSwap(old, ns<<verStampShift|(old-1)&verCountMask) {
			return
		}
	}
}

// verRaise raises the stamp without touching the count.
func verRaise(v *atomic.Uint64, stamp uint64) {
	for {
		old := v.Load()
		if old>>verStampShift >= stamp {
			return
		}
		if v.CompareAndSwap(old, stamp<<verStampShift|old&verCountMask) {
			return
		}
	}
}

// verUnpack splits a version word into its stamp and writer-activity flag.
func verUnpack(w uint64) (stamp uint64, writerActive bool) {
	return w >> verStampShift, w&verCountMask != 0
}
