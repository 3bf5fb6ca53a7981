package otable

import "sync/atomic"

// Version state is what Table.SampleVersion, ReleaseWriteV and StampVersion
// operate on: it lets invisible readers (internal/stm) validate by
// comparison instead of acquiring read ownership. A sample answers two
// questions about a block's cell:
//
//   - stamp: a word of its own, at least the highest epoch-clock value a
//     writer of the block has published;
//   - writer active: read from state acquire and release maintain anyway, so
//     no operation pays an RMW to say it.
//
// A tagless cell is its entry: a stamp word per entry, raised by verRaise
// (aliasing blocks share it, and a slow writer publishing an old epoch after
// a fast one must not make the cell look older than it is), and a writer is
// active exactly while the entry's mode is Write. A tagged cell is the
// block's own record: a stamp word in the record, and a writer is active
// exactly while the record's mode is Write. A block with no record answers
// with its bucket's floor.
//
// Ordering. A writer runs
//
//	state CAS → write-back → stamp store (or raise) → freeing CAS
//
// and draws its stamp while it holds every write of the attempt, so the
// stamp exceeds every stamp published to the cell before the draw — on a
// record it is therefore published by a plain store: the holder is the
// record's only writer. The abort release publishes nothing: memory never
// changed. A reader that finds the epoch clock moved since its snapshot
// (internal/stm; on a still clock one writer-free sample before the load is
// enough, and the clock vouches for the rest) brackets its load with two
// samples and accepts it when neither shows a writer and both return the
// same stamp s; a sample loads the activity first, the stamp second. Then,
// for any writer of the cell:
//
//   - gone before the second sample's activity load: it published its stamp
//     before that, so s covers it; the first sample returned s as well, so
//     it followed a raise to at least the writer's stamp — the writer's own,
//     which follows its write-back, and the load saw all of it;
//   - arriving after the second sample's activity load: it writes back after
//     the reader's load, and its stamp, drawn later still, exceeds the first
//     sample's; had the second stamp load seen it, the samples would differ;
//   - active at either activity load: rejected.
//
// "The writer's own" needs the cell's writers to exclude each other, which a
// tagless entry's do and a record's do. Records come and go, so the tagged
// table keeps three more rules, and with them every answer stays an upper
// bound on the block's published stamps:
//
//   - A block has at most one record that is not Dead (Tagged invariant 6).
//     A sample walks, with loads only, to the first record tagged with the
//     block — generation-validated as every walk is, and validated again
//     after the stamp load, so the stamp is that incarnation's — and
//     answers from it. A Dead record's stamp is final; a fresh record for
//     the block would sit nearer the head, so its writer entered after the
//     Dead one was condemned and draws above that stamp.
//   - A condemned record's stamp is folded into the bucket floor (verRaise)
//     before the record is unlinked — by its condemner, and by an insert
//     walk for its block that passes it first — and a fresh record starts
//     at the floor, loaded after its insert walk found no live record for
//     the block. A block with no record answers with the floor: the raise
//     covers every stamp a vanished record held.
//   - The floor covers stamps of other blocks too, which writers of this
//     block do not exclude. A sample that answers with it therefore loads
//     the head again after the floor and walks again if it changed: a writer
//     that inserted a record for the block after the walk began is seen,
//     and one inserting after the head's second load draws above the floor.
//
// Aliasing blocks share a tagless entry's version, so an aliased commit
// costs the reader a spurious validation failure — the paper's
// birthday-paradox false sharing, at validation granularity — never a wrong
// value. Tagged blocks share only the floor, which rises when a record is
// reaped: a reader of a block with no record that began before the reaped
// record's commit then fails validation. Only a chain deeper than the reap
// threshold reaps (tag streaming does), and the floor cannot be avoided: a
// bounded table cannot remember the stamp of every block it stops tracking.

// verRaise raises the stamp word v to at least stamp. Stamp 0 — the
// abort-path release — publishes nothing and does not touch the word.
func verRaise(v *atomic.Uint64, stamp uint64) {
	for stamp != 0 {
		if old := v.Load(); old >= stamp || v.CompareAndSwap(old, stamp) {
			return
		}
	}
}
