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
// other: Config.FallbackAfter bounds it.
func (th *Thread) roConflict() {
	th.roAbort = true
	th.conflict(otable.NoConflict)
}

// The read set is one log. Thread.dlog lists every chunk the attempt has
// touched, once, and Thread.dbits has one bit per chunk of memory, set while
// the chunk is read and not written: those chunks are the read set
// (reading). The access set holds only the chunks written.
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
// arriving later draws above rv before it writes a word back
// (commitStamp). extendSnapshot keeps the invariant across a new rv: it
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
//
// A conflict that no data item caused costs a wait, not an abort. Three
// rules, each wait bounded by waitPolls yields through the thread's waiter
// (so a cancelled AtomicCtx ends the wait and the attempt at once):
//
//   - A writer that has drawn no stamp is harmless. A sample that shows a
//     foreign writer waits for a moment when every drawn stamp is finished
//     (drainedClock); that writer has written nothing back, so memory is the
//     committed state at that clock, and the read extends to it and reads
//     drained from there. A read-set cell held at validation passes the same
//     way, after a re-sample of the cell shows its stamp still at most rv
//     (revalidateReadSet).
//   - A denied write acquire on a tagless table waits while the cell shows a
//     writer and retries when it clears (acquireWriteChunk): the holder may
//     write an aliasing block.
//   - A tagless pin is checked by value: where the entry's stamp moved past
//     rv, the words the attempt read of the chunk are compared with memory,
//     which its own hold keeps still (checkPinned); the reads of a tagless
//     attempt log their words and values (Thread.vlog) for it.
//
// A tagged denial still aborts at once: a record's holder writes that very
// block.

// roReadRetries bounds how often a read goes back to the cell — after an
// extension, or a changed re-sample — before it gives up.
const roReadRetries = 4

// waitPolls bounds every wait inside an attempt, in yields: a holder that has
// not cleared, or write-backs still in flight, after that many abort the
// attempt, and the contention manager schedules the retry.
const waitPolls = 16

// chunkWords is the most words a chunk holds: a block's.
const chunkWords = 1 << blockWordShift

// accept ends a read of chunk, one the attempt has not written, whose words
// the caller has just loaded with no sample. A clock still at rv accepts
// them if the chunk is in the read set or the attempt reads drained, and the
// chunk joins the read set; a clock still where the chunk's own bracket read
// it accepts a chunk of the read set too. Otherwise the caller reads it
// through readSampled.
func (th *Thread) accept(chunk addr.Block) bool {
	w, bit := th.bitOf(chunk)
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
// re-sample brackets them. A stamp above rv extends the snapshot, which
// spends the sample; a chunk already in the read set then fails the
// extension. A writer that is the attempt's own hold of the chunk's tagless
// slot, through an aliasing chunk, pins memory; a foreign one is waited out
// until no write-back is in flight, and the read extends to that clock and
// loads drained (pinOrWait).
func (th *Thread) readSampled(chunk addr.Block, ws []atomic.Uint64, out []uint64) {
	tab := th.tab
	for tries := 0; ; tries++ {
		s1, locked := tab.SampleVersion(chunk)
		if locked {
			pinned, e := th.pinOrWait(chunk)
			if pinned {
				if s1, _ = tab.SampleVersion(chunk); s1 > th.rv {
					th.coverStamp(s1)
				}
				loadWords(ws, out)
				th.brChunk, th.brClock = chunk, th.rt.epoch.Load()
				break
			}
			// No write-back was in flight at e: read drained from there.
			th.extendTo(e, true)
			if loadWords(ws, out); th.rt.epoch.Load() == th.rv {
				break
			}
		} else if s1 > th.rv {
			th.coverStamp(s1)
		} else {
			loadWords(ws, out)
			e := th.rt.epoch.Load()
			if e == th.rv {
				break
			}
			if s2, locked := tab.SampleVersion(chunk); !locked && s2 == s1 {
				th.brChunk, th.brClock = chunk, e
				break
			}
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

// bitOf returns the word of dbits that holds chunk's bit, and the bit.
func (th *Thread) bitOf(chunk addr.Block) (*uint64, uint64) {
	return &th.dbits[chunk>>6], 1 << (chunk & 63)
}

// log adds chunk, just read, to the read set unless it is there: its bit
// and its place in the log.
func (th *Thread) log(chunk addr.Block) {
	if w, bit := th.bitOf(chunk); *w&bit == 0 {
		*w |= bit
		th.dlog = append(th.dlog, chunk)
	}
}

// reading reports whether chunk is in the read set: read by the attempt and
// not written since.
func (th *Thread) reading(chunk addr.Block) bool {
	w, bit := th.bitOf(chunk)
	return *w&bit != 0
}

// insert adds chunk's access-set entry, which it must not have, and puts the
// chunk in the log unless a read put it there: a chunk with no entry is in
// the log only if its bit is set.
func (th *Thread) insert(chunk addr.Block) *txn.Access {
	if w, bit := th.bitOf(chunk); *w&bit == 0 {
		th.dlog = append(th.dlog, chunk)
	}
	return th.set.Insert(chunk)
}

// clearLog empties the log as the attempt ends, beside the access set's
// Reset, clearing the bits of the chunks it lists: an attempt touches only
// the bits its own reads set, and none is left set between attempts.
func (th *Thread) clearLog() {
	for _, c := range th.dlog {
		w, bit := th.bitOf(c)
		*w &^= bit
	}
	th.dlog = th.dlog[:0]
	th.vlog = th.vlog[:0]
}

// loggedWord is one word a tagless attempt read, and the value it read: an
// entry of the value log a tagless pin compares (sameValues).
type loggedWord struct{ word, val uint64 }

// logValues adds the words vals, read from memory word on, to the value log.
// Read appends its one word in place.
func (th *Thread) logValues(word uint64, vals []uint64) {
	for j, v := range vals {
		th.vlog = append(th.vlog, loggedWord{word + uint64(j), v})
	}
}

// sameValues reports whether the attempt logged a read of chunk (every read
// of a tagless attempt does) and every word it read of chunk still holds the
// value it read.
func (th *Thread) sameValues(chunk addr.Block) bool {
	found := false
	for _, r := range th.vlog {
		if addr.Block(r.word>>blockWordShift) != chunk {
			continue
		}
		if th.mem.words[r.word].Load() != r.val {
			return false
		}
		found = true
	}
	return found
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

// pinOrWait handles a version sample that showed a writer in chunk's cell.
// The attempt's own hold pins the chunk and the read proceeds with no table
// call (pinned): a tagless cell is an entry, which a writing attempt may
// hold through an aliasing chunk (a tagged sample answers for the chunk's
// own record, which the attempt never holds where it samples). Any other
// writer is foreign. It is harmless until it draws its stamp, so pinOrWait
// waits out the write-backs in flight (drainedClock) and returns the clock
// at which none was: the caller goes on from there. A wait that runs out
// aborts the attempt, and the contention manager arbitrates the retry.
func (th *Thread) pinOrWait(chunk addr.Block) (pinned bool, e uint64) {
	if th.holdsCell(chunk) {
		th.ctr.roPromotes.Add(1)
		return true, 0
	}
	e, ok := th.drainedClock()
	if !ok {
		th.roConflict()
	}
	return false, e
}

// drainedClock yields through the waiter, at most waitPolls times, until it
// reads a moment at which every drawn stamp but the attempt's own is
// finished, and returns the clock there: done loaded between two equal loads
// of the clock, with done == epoch, or, once the attempt has drawn stamp S,
// done == S−1 and epoch == S. A writer that holds a cell at that moment has
// drawn no stamp, so it has written nothing back: memory is the committed
// state at the clock returned, and the writer will draw above it. ok is false
// if the wait ran out, the context ended, or a stamp drawn after the
// attempt's own makes the moment unreachable.
func (th *Thread) drainedClock() (e uint64, ok bool) {
	rt := th.rt
	for polls := 0; ; polls++ {
		e = rt.epoch.Load()
		d := rt.done.Load()
		if rt.epoch.Load() == e {
			if s := th.stamp; s == 0 && d == e || s != 0 && d == s-1 && e == s {
				return e, true
			}
		}
		if th.stamp != 0 && e != th.stamp || polls == waitPolls || !th.w.yield() {
			return e, false
		}
	}
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
// The attempt reads drained again from the new rv if done, loaded after it,
// equals it — the test an attempt makes as it begins.
func (th *Thread) extendSnapshot() {
	newRv := th.rt.epoch.Load()
	th.extendTo(newRv, th.rt.done.Load() == newRv)
}

// extendTo moves rv to newRv, a clock loaded before the call, once the read
// set validates there, and sets whether the attempt reads drained from it.
// An unmoved rv has nothing to validate.
func (th *Thread) extendTo(newRv uint64, drained bool) {
	if newRv != th.rv {
		th.revalidateReadSet(newRv)
		th.rv = newRv
		th.ctr.roExtends.Add(1)
	}
	th.quiet = drained
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
	th.stamp = th.rt.epoch.Add(1) // releaseAll counts it finished, on commit or rollback
	if th.stamp != th.rv+1 {
		th.revalidateReadSet(0)
	}
	return th.stamp
}

// revalidateReadSet aborts the attempt unless every chunk of the read set
// shows no writer and a stamp at most rv. newRv is the clock an extension
// moves rv to, 0 at a commit. A writer that is the attempt's own hold,
// through an aliasing chunk, passes: it keeps the stamp still, so the
// sample's stamp is all there is to check. A foreign writer passes at a
// moment when no write-back is in flight (drainedClock) — at newRv itself
// for an extension, and at the attempt's own stamp for a writing commit — if
// a sample of the cell taken after that moment still shows a stamp at most
// rv: a writer of the chunk since the read would have published above rv
// before the moment, and one still holding it will draw above it.
func (th *Thread) revalidateReadSet(newRv uint64) {
	for _, c := range th.dlog {
		if !th.reading(c) {
			continue // written: the write acquire checked it (checkPinned)
		}
		s, locked := th.tab.SampleVersion(c)
		if locked {
			if pinned, e := th.pinOrWait(c); !pinned {
				if newRv != 0 && e != newRv {
					th.roConflict()
				}
				s, _ = th.tab.SampleVersion(c)
			}
		}
		if s > th.rv {
			th.roConflict()
		}
	}
}

// checkPinned is the validation a chunk of the read set owes once the
// attempt's write acquire pins it (e is its entry): the stamp must still be
// at most rv. The writer flag is deliberately ignored — it is the attempt's
// own hold, or a writer on another chunk of the cell — and a committed
// writer of *this* chunk would have raised the stamp before the acquire
// could succeed. A clock still at rv after the acquire needs no sample: by
// the Ver invariant a writer of the chunk since the read would have drawn
// above rv.
//
// A tagless stamp above rv may be an aliasing chunk's commit. The attempt's
// own hold now keeps the chunk's memory still, so the pin compares the words
// the attempt read of it with memory (sameValues) and passes if they all
// match. The chunk's words not read may still have changed, so the entry
// loses PermRead: they owe the snapshot-cover check before they are read
// (coverWritten).
func (th *Thread) checkPinned(e *txn.Access) {
	if th.rt.epoch.Load() == th.rv {
		return
	}
	if s, _ := th.tab.SampleVersion(e.Chunk); s <= th.rv {
		return
	}
	if th.slotID || !th.sameValues(e.Chunk) {
		th.roConflict()
	}
	e.Perm &^= txn.PermRead
}
