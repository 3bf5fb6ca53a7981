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

// The read set is one log. Thread.dlog lists every chunk the attempt has
// touched, once, and Thread.dbits has one bit per chunk of memory, set while
// the chunk is read and not written: those chunks are the read set
// (reading). The access set holds only the chunks written, and the
// footprint-only reads of blocks past the bitmap (see log).
//
// The Ver invariant: the attempt's rv bounds the cell stamp of every chunk
// of the read set from above, at a moment after the current rv was loaded
// when no writer of the chunk was in flight — a writer-free sample at most
// rv taken after rv was loaded, or done == rv on a drained attempt, a
// writer-free sample of every cell at once. A writer of the chunk arriving
// after that moment draws above rv, so the chunk is unchanged since the read
// while its cell shows no writer and a stamp not above rv; a tagged chunk
// with no record may answer with a floor that rose, by reaps, to a stamp at
// most rv, and passes. The invariant lets a read ask the clock instead of
// the cell: loads of a read-set chunk's words followed by rt.epoch.Load() ==
// th.rv belong to the committed state rv bounds. A writer that drew a stamp
// at most rv held its chunks writer-active from before the draw to its
// release, so the sample saw it or the loads see all of it; a writer
// arriving later draws above rv before it writes a word back (commitStamp;
// StoreNT likewise). extendSnapshot keeps the invariant across a new rv: it
// loads the clock, then samples every chunk of the read set against the rv
// it replaces.
//
// So a read of a chunk the attempt has not written is a load and a clock
// check while the clock stands at rv — a first read too, if the attempt
// reads drained (accept) — and takes the sample bracket (readSampled) once
// it has moved. One re-read is spared the bracket: a bracket proves its
// chunk unchanged after the clock value it read, so a re-read of the chunk
// last bracketed is accepted on a clock still at that value (Thread.brChunk,
// brClock), which keeps a Read per word equal to ReadWords. A read of a
// written chunk takes its redo words from the entry and the rest from
// memory, which the attempt's hold pins (coverWritten).

// roReadRetries bounds how often a read goes back to the cell — after an
// extension, or a changed re-sample — before it gives up.
const roReadRetries = 4

// chunkWords is the most words a chunk holds: a block's.
const chunkWords = 1 << blockWordShift

// accept ends a read of chunk, one the attempt has not written, whose words
// the caller has just loaded with no sample. A clock still at rv accepts
// them if the chunk is in the read set or the attempt reads drained, and the
// chunk joins the read set; a clock still where the chunk's own bracket read
// it accepts a chunk of the read set too. Otherwise the caller reads it
// through readSampled.
func (th *Thread) accept(chunk addr.Block) bool {
	w, bit := &th.dbits[chunk>>6], uint64(1)<<(chunk&63)
	e := th.rt.epoch.Load()
	if *w&bit != 0 {
		return e == th.rv || chunk == th.brChunk && e == th.brClock
	}
	if !th.quiet || e != th.rv {
		return false
	}
	*w |= bit
	th.dlog = append(th.dlog, chunk)
	return true
}

// readSampled reads the words ws of chunk into out where the clock alone
// cannot accept them, and adds the chunk to the read set. A writer-free
// sample at most rv bounds the chunk by rv, and a clock still at rv after
// the loads accepts them; on a moved clock an unchanged, writer-free
// re-sample brackets them (with no words, for ReadBlock, there is nothing
// to bracket). A stamp above rv extends the snapshot, which spends the
// sample; a chunk already in the read set then fails the extension. A
// writer aborts the attempt unless it is the attempt's own hold of the
// chunk's tagless slot through an aliasing chunk (pinOrAbort), which pins
// memory.
func (th *Thread) readSampled(chunk addr.Block, ws []atomic.Uint64, out []uint64) {
	tab := th.tab
	for tries := 0; ; tries++ {
		s1, locked := tab.SampleVersion(chunk)
		if locked {
			th.pinOrAbort(chunk)
			if s1, _ = tab.SampleVersion(chunk); s1 > th.rv {
				th.coverStamp(s1)
			}
			loadWords(ws, out)
			th.brChunk, th.brClock = chunk, th.rt.epoch.Load()
			break
		}
		if s1 > th.rv {
			th.coverStamp(s1)
		} else if loadWords(ws, out); len(ws) == 0 {
			break
		} else if e := th.rt.epoch.Load(); e == th.rv {
			break
		} else if s2, locked := tab.SampleVersion(chunk); !locked && s2 == s1 {
			th.brChunk, th.brClock = chunk, e
			break
		}
		if tries >= roReadRetries {
			th.roConflict()
		}
	}
	th.log(chunk)
}

func loadWords(ws []atomic.Uint64, out []uint64) {
	for j := range ws {
		out[j] = ws[j].Load()
	}
}

// bitOf returns the word of dbits that holds chunk's bit, and the bit. The
// word is nil for a block past the bitmap: ReadBlock and WriteBlock take
// blocks memory need not hold.
func (th *Thread) bitOf(chunk addr.Block) (*uint64, uint64) {
	if i := uint64(chunk) >> 6; i < uint64(len(th.dbits)) {
		return &th.dbits[i], 1 << (chunk & 63)
	}
	return nil, 0
}

// log adds chunk, just read, to the read set unless it is there: its bit
// and its place in the log. A block past the bitmap — only ReadBlock reads
// those, and only when it has no entry — takes a footprint-only access-set
// entry instead, marked PermRead.
func (th *Thread) log(chunk addr.Block) {
	w, bit := th.bitOf(chunk)
	if w == nil {
		th.insert(chunk).Perm = txn.PermRead
	} else if *w&bit == 0 {
		*w |= bit
		th.dlog = append(th.dlog, chunk)
	}
}

// reading reports whether chunk is in the read set: read by the attempt and
// not written since. Its bit says so, or, for a block past the bitmap, its
// entry: PermRead without PermWrite.
func (th *Thread) reading(chunk addr.Block) bool {
	if w, bit := th.bitOf(chunk); w != nil {
		return *w&bit != 0
	}
	e := th.desc.Set.Lookup(chunk)
	return e != nil && e.Perm&(txn.PermRead|txn.PermWrite) == txn.PermRead
}

// insert adds chunk's access-set entry, which it must not have, and puts the
// chunk in the log unless a read put it there: a chunk with no entry is in
// the log only if its bit is set.
func (th *Thread) insert(chunk addr.Block) *txn.Access {
	if w, bit := th.bitOf(chunk); w == nil || *w&bit == 0 {
		th.dlog = append(th.dlog, chunk)
	}
	return th.desc.Set.Insert(chunk)
}

// clearLog empties the log as the attempt ends, beside the access set's
// Reset, clearing the bits of the chunks it lists: an attempt touches only
// the bits its own reads set, and none is left set between attempts.
func (th *Thread) clearLog() {
	for _, c := range th.dlog {
		if w, bit := th.bitOf(c); w != nil {
			*w &^= bit
		}
	}
	th.dlog = th.dlog[:0]
}

// coverStamp is called with a sampled stamp above rv: the chunk committed
// after the snapshot, but the read set may still be untouched, so try to
// slide the snapshot forward to cover it. That reloads rv: by the Ver
// invariant s, sampled before, can no longer bound a read.
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

// coverWritten is the first read of a chunk the attempt wrote without
// reading it first. The hold keeps the chunk still, but it may have been
// committed after rv, and its unwritten words must not be seen beside older
// reads: the read owes the snapshot-cover check of any first read, once, with
// no sample while the clock stands at rv. PermRead records that it is done;
// a write acquire of a chunk in the read set sets it too.
func (th *Thread) coverWritten(e *txn.Access) {
	e.Perm |= txn.PermRead
	if th.rt.epoch.Load() != th.rv {
		if s, _ := th.tab.SampleVersion(e.Chunk); s > th.rv {
			th.coverStamp(s)
		}
	}
}

// extendSnapshot tries to slide the attempt's epoch snapshot forward after
// a read observed a post-snapshot stamp: if every chunk of the read set
// still shows no writer and a stamp at most rv, the reads all remain atomic
// at the *current* epoch and rv may advance to it (the LSA "lazy snapshot"
// extension). Any mismatch aborts. The clock is read before the cells: each
// passing sample re-establishes the Ver invariant for the new rv.
//
// Drained reads end here for the rest of the attempt: write-backs below the
// new rv may still be in flight.
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
// read set; if it drew exactly rv+1 no other writing commit serialized since
// its snapshot and the read set is vacuously intact.
func (th *Thread) commitStamp() uint64 {
	stamp := th.rt.epoch.Add(1)
	th.stamped = true // releaseAll counts it finished, on commit or rollback
	if stamp != th.rv+1 {
		th.revalidateReadSet()
	}
	return stamp
}

// revalidateReadSet aborts the attempt unless every chunk of the read set
// shows no writer and a stamp at most rv. A writer that is the attempt's own
// hold, through an aliasing chunk, passes: it keeps the stamp still, so the
// sample's stamp is all there is to check.
func (th *Thread) revalidateReadSet() {
	for _, c := range th.dlog {
		if !th.reading(c) {
			continue // written: the write acquire checked it (checkPinned)
		}
		s, locked := th.tab.SampleVersion(c)
		if locked {
			th.pinOrAbort(c)
		}
		if s > th.rv {
			th.roConflict()
		}
	}
}

// checkPinned is the validation a chunk of the read set owes once the
// attempt's write acquire pins it: the stamp must still be at most rv. The
// writer flag is deliberately ignored — it is the attempt's own hold, or a
// writer on another chunk of the cell — and a committed writer of *this*
// chunk would have raised the stamp before the acquire could succeed. A
// clock still at rv after the acquire needs no sample: by the Ver invariant
// a writer of the chunk since the read would have drawn above rv.
func (th *Thread) checkPinned(chunk addr.Block) {
	if th.rt.epoch.Load() == th.rv {
		return
	}
	if s, _ := th.tab.SampleVersion(chunk); s > th.rv {
		th.roConflict()
	}
}
