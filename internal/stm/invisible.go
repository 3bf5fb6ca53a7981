package stm

import (
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
	"tmbp/internal/txn"
)

// roConflict aborts the attempt on a failed version validation. There is no
// table opponent to report — the conflicting writer already committed and
// left — so the CM sees NoConflict. The kill counts as an attempt like any
// other: Config.FallbackAfter bounds it, or else Config.MaxAttempts.
func (th *Thread) roConflict() {
	th.roAbort = true
	th.conflict(otable.NoConflict)
}

// The Ver invariant: every VerRead entry's Ver, and rv0 for every chunk of
// the drained log, bounds the chunk's cell stamp from above at a moment after
// the current th.rv was loaded when no writer of the chunk was in flight. Ver
// is the rv the read was taken at: a writer-free sample at most rv, taken
// after rv was loaded, says rv bounds the cell then, and on a drained attempt
// done == rv was a writer-free sample of every cell at once. A writer of the
// chunk arriving after that moment draws above rv, so the chunk is unchanged
// since the read while its cell shows no writer and a stamp not above Ver.
// Recording rv rather than the sample lets a chunk's answer rise without
// failing the read as long as no commit of the chunk caused it: a tagged
// chunk with no record answers with its bucket's floor, which rises, up to
// stamps below rv, when other records are reaped. The invariant lets a read
// ask the clock instead of the cell — loads of the chunk's words followed by
// rt.epoch.Load() == th.rv belong to the committed state Ver bounds, all of
// them to the same one. A writer that drew a stamp at most rv holds its
// chunks writer-active from before the draw to its release: the sample would
// have seen it, so it had released and the loads see all of it. A writer
// arriving after the sample draws above rv, and draws before it writes a word
// back (commitStamp; StoreNT likewise), so a clock still at rv after the last
// load means it has not written. Whatever reloads rv keeps the invariant:
// extendSnapshot samples every logged chunk and entry after the reload and
// ends drained reading, and the first read whose sample caused the extension
// takes that sample again.
//
// Drained reads keep no entry. While the attempt reads drained (quiet), a
// first read of a chunk with no entry loads only the words asked for, straight
// from memory, accepts them on a clock still at rv, and appends the chunk to
// the drained log (acceptDrained) — a plain list, deduplicated by a bitmap
// with one bit per chunk of memory: nothing can invalidate the read until the
// clock moves, so it owes no validation until then. The log is checked
// wherever the read set is, against rv0, the rv every drained read was taken
// at: revalidateReadSet samples each logged chunk as it samples a VerRead
// entry, and a write acquire of a logged chunk gives its entry Ver = rv0 and
// checkPinned's stamp check, and retires it from the log. A re-read of a
// logged chunk goes to memory again: while still drained it is accepted the
// same way, and once the clock has moved it is an ordinary first read
// (readInvisibleMiss) that takes a sample and an entry, beside the log's
// claim on the chunk, which stays.
//
// A chunk read after the clock moved is read whole: its first read snapshots
// every word into the entry (Vals, RMask), so the loads are validated once per
// chunk and every later read of the chunk is an array hit with no load and no
// clock check.

// roReadRetries bounds how often an invisible first read goes back to the
// cell — after an extension, or a changed re-sample — before it gives up.
const roReadRetries = 4

// chunkWords is the most words a chunk holds: a block's.
const chunkWords = 1 << blockWordShift

// loadChunk loads into vals every word of chunk that lies in memory and is
// not marked in skip, and returns the mask of the words it loaded. At word
// granularity the chunk is its one word.
func (th *Thread) loadChunk(chunk addr.Block, vals *[chunkWords]uint64, skip uint8) uint8 {
	words := th.mem.words
	base, n := uint64(chunk), uint64(1)
	if !th.wordGran {
		base, n = base<<blockWordShift, chunkWords
		if skip == 0 && base+chunkWords <= uint64(len(words)) {
			// The common case, a whole block: no mask to consult, and
			// unrolled, which the first read of every chunk pays for.
			ws := (*[chunkWords]atomic.Uint64)(words[base : base+chunkWords])
			vals[0], vals[1], vals[2], vals[3] = ws[0].Load(), ws[1].Load(), ws[2].Load(), ws[3].Load()
			vals[4], vals[5], vals[6], vals[7] = ws[4].Load(), ws[5].Load(), ws[6].Load(), ws[7].Load()
			return 1<<chunkWords - 1
		}
	}
	ws := words[base:min(base+n, uint64(len(words)))]
	var mask uint8
	for i := range ws {
		if skip&(1<<i) == 0 {
			vals[i] = ws[i].Load()
			mask |= 1 << i
		}
	}
	return mask
}

// readInvisibleMiss is the invisible first read of a chunk that is not read
// drained, with no table traffic: sample the version cell, load every word
// of the chunk, check the clock, and return the new entry holding the
// snapshot. The sample (no writer, stamp at most rv) makes rv the entry's
// Ver, and a clock still at rv accepts the loads on it (the Ver invariant).
// On a moved clock the loads are bracketed instead: an unchanged,
// writer-free re-sample pins them to the state Ver names. A stamp above rv
// extends the snapshot, which reloads rv, so that sample is spent and the
// loop takes another.
//
// A sample that shows a writer aborts the attempt unless the writer is the
// attempt itself, holding the chunk's tagless slot through an aliasing chunk
// (pinOrAbort): that hold pins memory, which leaves nothing to validate. The
// bracket compares the two samples; only the entry's Ver is rv.
func (th *Thread) readInvisibleMiss(chunk addr.Block) *txn.Access {
	tab := th.tab
	// The loads go straight into the entry. Until it is accepted it has no
	// permission bits, so a revalidation or a release passes it over.
	e := th.insert(chunk)
	for tries := 0; ; tries++ {
		s1, locked := tab.SampleVersion(chunk)
		switch {
		case locked:
			th.pinOrAbort(chunk)
			e.Perm = txn.PermRead
			if s1, _ = tab.SampleVersion(chunk); s1 > th.rv {
				th.coverStamp(s1)
			}
			e.RMask = th.loadChunk(chunk, &e.Vals, 0)
			return e
		case s1 > th.rv:
			th.coverStamp(s1)
		default:
			mask := th.loadChunk(chunk, &e.Vals, 0)
			if th.rt.epoch.Load() != th.rv {
				if s2, locked2 := tab.SampleVersion(chunk); locked2 || s2 != s1 {
					break
				}
			}
			e.Perm = txn.PermRead | txn.VerRead
			e.Ver = th.rv
			e.RMask = mask
			return e
		}
		if tries >= roReadRetries {
			th.roConflict()
		}
	}
}

// acceptDrained ends a drained first read of chunk, one with no access-set
// entry, whose words the caller has just loaded from memory. A clock still at
// rv accepts them, as it accepts any drained load (the Ver invariant), and the
// chunk joins the drained log unless it is there already: no entry, no
// snapshot, no hash probe. A moved clock ends drained reading and reports
// false; the caller then reads the chunk through readInvisibleMiss.
func (th *Thread) acceptDrained(chunk addr.Block) bool {
	if th.rt.epoch.Load() != th.rv {
		th.quiet = false
		return false
	}
	if w, bit := &th.dbits[chunk>>6], uint64(1)<<(chunk&63); *w&bit == 0 {
		*w |= bit
		th.dlog = append(th.dlog, chunk)
	}
	return true
}

// logged reports whether chunk is in the drained log and not yet written.
// ReadBlock and WriteBlock take blocks memory need not hold, so a chunk past
// the bitmap is simply not logged.
func (th *Thread) logged(chunk addr.Block) bool {
	i := uint64(chunk) >> 6
	return i < uint64(len(th.dbits)) && th.dbits[i]&(1<<(chunk&63)) != 0
}

// insert adds chunk's access-set entry. A logged chunk is then in both, which
// FootprintBlocks counts once.
func (th *Thread) insert(chunk addr.Block) *txn.Access {
	if len(th.dlog) != 0 && th.logged(chunk) {
		th.dboth++
	}
	return th.desc.Set.Insert(chunk)
}

// clearLog empties the drained log as the attempt ends, beside the access
// set's Reset, clearing the bits of the chunks it lists: an attempt touches
// only the bits its own reads set, and none is left set between attempts.
func (th *Thread) clearLog() {
	for _, c := range th.dlog {
		th.dbits[c>>6] &^= 1 << (c & 63)
	}
	th.dlog = th.dlog[:0]
	th.dboth = 0
}

// coverStamp is called with a sampled stamp above rv: the chunk committed
// after the snapshot, but the rest of the read set may still be untouched,
// so try to slide the snapshot forward to cover it. That reloads rv: by the
// Ver invariant s, sampled before, can no longer become a Ver.
func (th *Thread) coverStamp(s uint64) {
	th.extendSnapshot()
	if s > th.rv {
		// A genuine stamp cannot exceed an epoch value read after it was
		// published; only injected staleness lands here.
		th.roConflict()
	}
}

// pinOrAbort handles a version sample that showed a writer in chunk's cell.
// The attempt's own hold pins the chunk and the read proceeds with no table
// call: a tagless cell is an entry, which a writing attempt may hold through
// an aliasing chunk (a tagged sample answers for the chunk's own record,
// which the attempt never holds where it samples). Any other writer is
// foreign and mid-flight; waiting here would bypass the contention manager,
// so the attempt aborts and lets it arbitrate.
func (th *Thread) pinOrAbort(chunk addr.Block) {
	if !th.wrote || !th.holdsCell(chunk) {
		th.roConflict()
	}
	th.ctr.roPromotes.Add(1)
}

// readInvisibleFill is the first read of a chunk the attempt already
// has an entry for, with no word read yet: a chunk ReadBlock recorded, or one
// the attempt holds because it wrote it, or pinned it under an own hold,
// before reading. Like a first read it loads every word the entry has no
// redo value for, into Vals, and validates the loads once; the chunk's later
// reads are array hits.
//
// An entry nothing pins (VerRead) is accepted on a clock still at rv with no
// visit to the cell — entry.Ver is the bound the Ver invariant asks for. On a
// moved clock the cell decides: no active writer and a stamp not above
// entry.Ver pin the loads to the state entry.Ver bounds — any writer that
// committed the chunk in between raised the stamp past it, and one still in
// flight shows as an active writer.
//
// A chunk the attempt holds is read straight from memory, but owes the
// snapshot-cover check of any first read: a chunk written without being read
// (or covered by an aliasing own hold) may have been committed after rv, and
// its unwritten words must not be seen beside older reads. While the clock
// stands at rv no stamp above it exists, so the check needs no sample, and
// the hold keeps the stamp still, so once is enough.
func (th *Thread) readInvisibleFill(e *txn.Access) {
	mask := th.loadChunk(e.Chunk, &e.Vals, e.WMask)
	if th.rt.epoch.Load() != th.rv {
		if e.Perm&txn.VerRead != 0 {
			if s, locked := th.tab.SampleVersion(e.Chunk); locked || s > e.Ver {
				th.validationFailed(e, locked)
			}
		} else if s, _ := th.tab.SampleVersion(e.Chunk); s > th.rv {
			th.coverStamp(s)
		}
	}
	e.RMask = mask
}

// readBlockInvisible is the invisible ReadBlock: record the chunk in the
// read set at rv, once a sample shows no writer and a stamp at most rv,
// without loading a word, so there is no load to bracket. A later Read of
// the chunk trusts the recorded Ver under the Ver invariant, so a sample
// that extended the snapshot is taken again. A drained attempt records rv
// with no sample while the clock still reads rv, the rule a drained load is
// accepted on. As in readInvisibleMiss, the entry is inserted first and has
// no permission bits until accepted.
func (th *Thread) readBlockInvisible(b addr.Block) {
	e := th.insert(b)
	for tries := 0; ; tries++ {
		if th.quiet && th.rt.epoch.Load() != th.rv {
			th.quiet = false
		}
		s1, locked := th.rv, false
		if !th.quiet {
			s1, locked = th.tab.SampleVersion(b)
		}
		if locked {
			th.pinOrAbort(b)
			e.Perm = txn.PermRead
			if s1, _ = th.tab.SampleVersion(b); s1 > th.rv {
				th.coverStamp(s1)
			}
			return
		}
		if s1 <= th.rv {
			e.Perm = txn.PermRead | txn.VerRead
			e.Ver = th.rv
			return
		}
		if tries >= roReadRetries {
			th.roConflict()
		}
		th.coverStamp(s1)
	}
}

// extendSnapshot tries to slide the attempt's epoch snapshot
// forward after a read observed a post-snapshot stamp: if every chunk read
// so far still carries exactly the stamp it was validated at, the reads all
// remain atomic at the *current* epoch and rv may advance to it (the LSA
// "lazy snapshot" extension). Any mismatch aborts. Chunks the attempt holds
// cannot have changed and are skipped. The clock is read before the cells:
// each passing sample re-establishes the Ver invariant for the new rv.
//
// Drained reads end here for the rest of the attempt: write-backs below the
// new rv may still be in flight. The drained log stays, checked against rv0.
func (th *Thread) extendSnapshot() {
	newRv := th.rt.epoch.Load()
	th.revalidateReadSet()
	th.rv = newRv
	th.quiet = false
	th.ctr.roExtends.Add(1)
}

// commitStamp is the serialization step of a writing commit, run with every
// write of the attempt held and before the first word is written back. The
// attempt — optimistic or serial — draws its stamp from the epoch clock
// here: were the clock advanced only after write-back (at release), two
// attempts with crossing read and write sets could both find it unmoved,
// both skip validation and commit a write skew. It then revalidates the
// reads nothing pins; if it drew exactly rv+1 no other writing commit
// serialized since its snapshot and the read set is vacuously intact.
func (th *Thread) commitStamp() uint64 {
	stamp := th.rt.epoch.Add(1)
	th.stamped = true // releaseAll counts it finished, on commit or rollback
	if stamp != th.rv+1 {
		th.revalidateReadSet()
	}
	return stamp
}

// revalidateReadSet aborts the attempt unless no chunk whose reads
// nothing pins has a writer or a stamp above the Ver they were validated at:
// the drained log's chunks, read at rv0, and the VerRead entries.
func (th *Thread) revalidateReadSet() {
	for _, c := range th.dlog {
		if !th.logged(c) {
			continue // written since: the write acquire checked it (acquireWriteChunk)
		}
		if s, locked := th.tab.SampleVersion(c); locked || s > th.rv0 {
			th.loggedFailed(c, s, locked)
		}
	}
	set := &th.desc.Set
	for i, n := 0, set.Len(); i < n; i++ {
		e := set.At(i)
		if e.Perm&txn.VerRead == 0 {
			continue
		}
		if s, locked := th.tab.SampleVersion(e.Chunk); locked || s > e.Ver {
			th.validationFailed(e, locked)
		}
	}
}

// loggedFailed is validationFailed for a logged chunk, whose sample s is the
// one to check: the attempt's own hold, through an aliasing chunk, keeps the
// stamp still, so no second sample can tell more.
func (th *Thread) loggedFailed(c addr.Block, s uint64, locked bool) {
	if locked {
		th.pinOrAbort(c)
	}
	if s > th.rv0 {
		th.roConflict()
	}
}

// validationFailed handles a sample of e's cell that did not show "no
// writer, stamp not above e.Ver" (the passing test stays inline at both callers:
// it runs once per validated read). A moved stamp aborts; a writer aborts
// too unless it is the attempt's own hold, which pins the entry on the spot,
// and its stamp is rechecked.
func (th *Thread) validationFailed(e *txn.Access, locked bool) {
	if !locked {
		th.roConflict()
	}
	th.pinOrAbort(e.Chunk)
	th.checkPinned(e)
}

// checkPinned retires e's VerRead bit once ownership (the attempt's own,
// through this entry or a covering earlier one) pins the chunk against
// writers: the stamp must still be at most the Ver the invisible reads
// validated against. The writer flag is deliberately ignored — it may be the
// attempt's own hold, or a writer on another chunk of the cell — and a
// committed writer of *this* chunk would have raised the stamp before our
// acquire could have succeeded. A clock still at rv after the acquire needs
// no sample: by the Ver invariant a writer of the chunk since the read would
// have drawn above rv.
func (th *Thread) checkPinned(e *txn.Access) {
	e.Perm &^= txn.VerRead
	if th.rt.epoch.Load() == th.rv {
		return
	}
	if s, _ := th.tab.SampleVersion(e.Chunk); s > e.Ver {
		th.roConflict()
	}
}
