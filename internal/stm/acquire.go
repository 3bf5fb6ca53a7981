package stm

import (
	"tmbp/internal/addr"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/txn"
)

// Tx is the handle user code receives inside Atomic. It is valid only for
// the duration of the enclosing attempt. One Tx is embedded in each Thread
// and reused across attempts, so beginning a transaction allocates nothing.
type Tx struct {
	th *Thread
}

// blockWordShift converts a word index to its block number; blockWordMask
// extracts the word-in-block offset.
const (
	blockWordShift = addr.BlockShift - addr.WordShift
	blockWordMask  = 1<<blockWordShift - 1
)

// locate maps address a to its memory word, its chunk (the block holding
// it), and its offset in the chunk. It panics on an address past the end of
// memory, so every chunk the runtime sees has its bit in dbits.
func (th *Thread) locate(a addr.Addr) (word uint64, chunk addr.Block, widx uint64) {
	word = th.mem.index(a)
	return word, addr.Block(word >> blockWordShift), word & blockWordMask
}

// Read returns the word at address a as of the transaction's serialization
// point, validating it against the version cell of a's chunk (see
// invisible.go). On conflict the attempt is rolled back and retried; user
// code simply never continues past the Read.
//
// The hit path is a single access-set probe, which finds only chunks the
// attempt wrote; any other chunk is one load, one clock check and, at its
// first read, a log append.
func (tx *Tx) Read(a addr.Addr) uint64 {
	th := tx.th
	word, chunk, widx := th.locate(a)
	w := &th.mem.words[word]
	var v uint64
	if e := th.set.Lookup(chunk); e != nil {
		// Written: a redo value wins; any other word comes from memory.
		if e.WMask&(1<<widx) != 0 {
			v = e.Vals[widx]
		} else {
			if e.Perm&txn.PermRead == 0 {
				th.coverWritten(e)
			}
			v = w.Load()
		}
	} else {
		if v = w.Load(); !th.accept(chunk) {
			var out [1]uint64
			th.readSampled(chunk, th.mem.words[word:word+1], out[:])
			v = out[0]
		}
		if !th.slotID {
			th.vlog = append(th.vlog, loggedWord{word, v})
		}
	}
	if th.rec != nil {
		th.recordRead(word, v)
	}
	return v
}

// ReadWords reads the len(dst) consecutive words starting at address a into
// dst. It behaves exactly like len(dst) calls to Read, one per word in
// address order — the same values, footprint, table traffic and recorded
// events — but probes the access set once per chunk it crosses rather than
// once per word, and checks the clock, or takes the sample bracket, once
// for all the words of a chunk: the bracket's clock value then accepts a
// Read of each further word with no sample, as Read's own bracket would.
func (tx *Tx) ReadWords(a addr.Addr, dst []uint64) {
	th := tx.th
	for len(dst) > 0 {
		word, chunk, widx := th.locate(a)
		// The words of dst in this chunk, as far as memory reaches: a walk
		// off its end panics at the next locate, where a Read would.
		out := dst[:min(uint64(len(dst)), chunkWords-widx, uint64(len(th.mem.words))-word)]
		ws := th.mem.words[word:][:len(out)]
		if e := th.set.Lookup(chunk); e != nil { // as in Read
			if run := uint8(1<<len(out)-1) << widx; e.WMask&run != run && e.Perm&txn.PermRead == 0 {
				th.coverWritten(e)
			}
			for j := range out {
				if e.WMask&(1<<(widx+uint64(j))) != 0 {
					out[j] = e.Vals[widx+uint64(j)]
				} else {
					out[j] = ws[j].Load()
				}
			}
		} else {
			if loadWords(ws, out); !th.accept(chunk) {
				th.readSampled(chunk, ws, out)
			}
			if !th.slotID {
				th.logValues(word, out)
			}
		}
		if th.rec != nil {
			for j, v := range out {
				th.recordRead(word+uint64(j), v)
			}
		}
		a += addr.Addr(len(out)) * addr.WordBytes
		dst = dst[len(out):]
	}
}

// recordRead hands a read to the history recorder.
func (th *Thread) recordRead(word, v uint64) {
	th.rec.RecordEvent(opacity.Event{Kind: opacity.KindRead,
		Thread: uint32(th.id), Attempt: int32(th.attempts), Word: word, Value: v})
}

// Write records v as the speculative value of the word at a, acquiring
// write ownership of a's chunk — and of that chunk only: the attempt's
// reads stay invisible and are validated at commit. Memory is
// unmodified until commit.
func (tx *Tx) Write(a addr.Addr, v uint64) {
	th := tx.th
	word, chunk, widx := th.locate(a)
	e := th.set.Lookup(chunk)
	if e == nil {
		e = th.insert(chunk)
		th.acquireWriteChunk(e)
	}
	e.Vals[widx] = v
	e.WMask |= 1 << widx
	if r := th.rec; r != nil {
		r.RecordEvent(opacity.Event{Kind: opacity.KindWrite,
			Thread: uint32(th.id), Attempt: int32(th.attempts), Word: word, Value: v})
	}
}

// acquireWriteChunk write-acquires e's chunk at its first write, e being the
// entry just inserted for it, and the table decides: Granted hands e the
// handle it releases by, and AlreadyHeld — a tagless entry the attempt holds
// through an aliasing chunk — leaves e with nothing to release. The runtime
// holds no read share, so there is never one to upgrade. A chunk of the read
// set leaves it here — the acquire pins what was read, and checkPinned runs
// the validation it owed — and its entry takes PermRead: its words are
// covered at rv. A tagless denial may come from a holder of an aliasing
// chunk, so it waits, at most waitPolls yields, while the cell shows a
// writer, and retries when it clears; a tagged denial, whose holder writes
// this very block, aborts at once. On conflict the attempt aborts with e
// holding nothing.
func (th *Thread) acquireWriteChunk(e *txn.Access) {
	out, ci, hnd := th.tab.AcquireWriteH(th.id, e.Chunk, 0, otable.NoHandle)
	for polls := 0; out.Conflict(); polls++ {
		if th.slotID || polls == waitPolls || !th.w.yield() {
			th.conflict(ci)
		}
		if _, held := th.tab.SampleVersion(e.Chunk); !held {
			out, ci, hnd = th.tab.AcquireWriteH(th.id, e.Chunk, 0, otable.NoHandle)
		}
	}
	if out == otable.Granted {
		e.Hnd = uint64(hnd)
	}
	if w, bit := th.bitOf(e.Chunk); *w&bit != 0 {
		*w &^= bit
		e.Perm |= txn.PermRead
		th.checkPinned(e)
	}
}

// holdsCell reports whether the attempt write-holds the version cell chunk
// samples: chunk's own record on a tagged table, the chunk's slot — through
// any chunk aliasing it — on a tagless one. A sample that shows a writer in
// a cell the attempt holds shows the attempt itself. The tagless answer
// scans the entries that hold a slot (carry a handle) for one in chunk's:
// only a sample that met a writer asks.
func (th *Thread) holdsCell(chunk addr.Block) bool {
	if th.slotID {
		e := th.set.Lookup(chunk)
		return e != nil && e.Hnd != 0
	}
	slot := th.tab.SlotOf(chunk)
	for i, n := 0, th.set.Len(); i < n; i++ {
		if e := th.set.At(i); e.Hnd != 0 && th.tab.SlotOf(e.Chunk) == slot {
			return true
		}
	}
	return false
}

// FootprintBlocks returns the number of distinct chunks the transaction has
// accessed so far: the length of its log, which lists each chunk read or
// written once.
func (tx *Tx) FootprintBlocks() int { return len(tx.th.dlog) }
