package otable

import (
	"fmt"
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// Tagged is the chaining ownership table of Figure 7. Each first-level
// bucket holds zero or more ownership records; each record carries the full
// block tag, so distinct blocks that hash together coexist on a chain and
// false conflicts are impossible. As the paper argues, the overwhelming
// majority of buckets hold 0 or 1 records at sane load factors, so the
// expected cost over tagless is one tag compare.
//
// The version state of the invisible-read protocol is per block too: each
// record carries its block's commit stamp, published by the record's writer
// with one store, and each bucket a floor that blocks with no record answer
// with (version.go). A version sample walks to the block's own record with
// loads only, so a commit to one block never moves the stamp another block
// answers with — only a reaped record's stamp, folded into the floor, is
// shared.
//
// Concurrency is lock-free, in the style of the tagless table's entries:
// bucket heads and chain links are CAS-able words, and every
// acquire/release/upgrade linearizes at one CAS on the target record's
// packed state word. No operation takes a mutex, so an acquire of one block
// never serializes behind an acquire of a different block that merely
// shares a bucket or stripe — the property the paper's scaling argument
// needs from the table.
//
// # Record lifecycle and invariants
//
// Records are slab-allocated and addressed by 32-bit indices; a link word
// packs {mark, generation, index} and a record's state word packs
// {mode, generation, payload}. The generation makes reuse ABA-proof: every
// state CAS carries the generation under which the record was found, and
// publishing a record bumps it, so a CAS left over from a previous
// incarnation can never land on the next one.
//
// One record incarnation (generation g) moves through a small state
// machine whose single linearization word is the state:
//
//	private            tag/state/next written while unreachable
//	  └─ publish       head CAS installs link{g, idx}; state is Read or Write
//	live               Read(n) ⇄ Read(n±1), Read(n)→Write (upgrade), and
//	                   Write/Read(1)→Free (release) by state CAS
//	free               still chained, claimable in place: the next acquire
//	                   of the same tag CASes {Free,g,0} back to a live mode.
//	                   This is what keeps the steady-state hot path at one
//	                   CAS per acquire — the record for a recurring block is
//	                   its own pool.
//	  └─ condemn       a reaping walk CASes {Free,g,0}→{Dead,g,0}; Dead is
//	                   terminal, so condemning and claiming arbitrate on the
//	                   same word and a record being removed can never be
//	                   revived. The condemner then folds the record's stamp,
//	                   final from here on, into the bucket floor
//	  └─ mark          mark bit set on the record's own next link, freezing
//	                   it: no unlink-CAS uses a marked expected value, so a
//	                   marked record can never act as the predecessor of
//	                   another unlink (the Harris rule that makes concurrent
//	                   removal of adjacent records safe)
//	  └─ unlink        exactly one CAS on the predecessor's link succeeds
//	  └─ retire        the unlinking thread bumps the generation (stored
//	                   to the state word before the next field becomes a
//	                   pool link) and pushes the record onto its stripe's
//	                   free list; stale walkers then fail generation
//	                   validation instead of reading free-list structure
//	                   as chain structure
//
// Acquires hand the record's {generation, index} link back to the caller
// as a Handle; release and upgrade through the handle skip the chain walk
// entirely and linearize at the same generation-validated state CAS the
// walking paths use. Because every state CAS embeds the generation, a
// stale handle — the record was condemned, unlinked, retired, and its
// slab slot reused under a new generation — can never land on the new
// incarnation; it fails validation and the operation falls back to the
// walking path.
//
// The invariants every path preserves:
//
//  1. A record's tag is written only while the record is private; walkers
//     may therefore trust a tag after validating the state generation.
//  2. All state CASes embed the generation; release and condemnation keep
//     it, publishing and retirement bump it. Retirement stores the bump
//     before overwriting the next field, and walkers read next before
//     state, so a pool link can never pass for an incarnation link.
//  3. A live or free incarnation's next link changes only by gaining the
//     mark; unlinking edits the predecessor's link, never the record's own.
//     (Exception: a nil next is permanent — inserts go to the head — so a
//     tail record is unlinked without marking.)
//  4. Only the condemner — the thread that won the condemning state CAS —
//     sets the mark, only after the state is Dead, and reads the splice
//     value from the next link only after the mark is set, so an unlink
//     can never resurrect a concurrently removed successor. Helpers act
//     only on marks they observe (next-then-state read order ties an
//     observed mark to the dead incarnation); a helper that CASed marks in
//     itself could freeze a recycled record's live link forever.
//  5. Only the thread whose unlink CAS succeeded retires the record, so
//     each incarnation is pooled exactly once.
//  6. Insertion is a head CAS against the head observed at the start of a
//     full, generation-validated walk that found no claimable or live
//     record for the tag; any concurrent insert changes the head and
//     forces a re-walk, so two chained records for one tag can never
//     coexist (one dead, unlinking record plus one fresh record can).
//  7. At most one location ever holds an unmarked link to a chained
//     record: its true predecessor's link field (or the bucket head).
//     Pool links are stored marked, and an inserting record's private
//     next is stored marked too, unmarked only after the head CAS makes
//     it the true predecessor of its successor. Without this, a stale
//     helper parked on a recycled record's next field could land its
//     splice CAS there while the true predecessor's splice also lands,
//     retiring the successor twice. Corollary: a mark on a live record
//     is a transient publish artifact — walkers decide deadness by the
//     state word and treat such marks as traversal noise.
type Tagged struct {
	stats   counters // first field, see counters; also yields Occupied
	h       hash.Func
	buckets []bucket
	// stripes hold the per-stripe free lists of retired records. Retiring
	// and allocating through the stripe of the operated-on bucket keeps
	// pool traffic spread out the same way striped locks would spread lock
	// traffic — but the list itself is a gen-tagged Treiber stack, so the
	// pool is as lock-free as the chains it feeds.
	stripes []stripe
	mask    uint64 // stripe index mask

	// Record slab: segments allocated on demand, never freed or moved, so
	// an index dereference is always safe and the GC keeps every record
	// reachable no matter what stale links still point at it.
	segs    []atomic.Pointer[recSeg]
	nextIdx atomic.Uint32 // bump allocator over the slab; index 0 = nil
}

// Slab geometry: segments of 1024 records, at most 1024 segments. The cap
// bounds chained+pooled records at ~1M per table — free records linger at
// up to reapDepth per bucket plus live footprints, so even a 64Ki-bucket
// table stays far below it — while an unused table carries only the 8 KiB
// segment directory.
const (
	segShift   = 10
	segSize    = 1 << segShift
	segMask    = segSize - 1
	maxSegs    = 1024
	maxRecords = maxSegs * segSize
)

// reapDepth is the base chain depth (in records traversed, any state) past
// which a walk condemns and removes the free records it passes. Claimable
// records shallower than this are left in place — they are the reuse fast
// path for recurring tags. The effective threshold is occupancy-adaptive:
// a bucket holding n live records tolerates reapDepth+n physical records
// before reaping, so a deep working set keeps its parked records (each
// held record legitimately accounts for one future parked record) while a
// bucket streaming unique tags has live ≈ 0 and keeps its chain bounded
// near the base depth, preserving the tag-streaming bound. The walk counts n
// itself, with loads: the held records it has passed, and — once it is deep
// enough to reap — the rest of the chain (heldFrom).
const reapDepth = 3

// heldFrom counts, with loads only, the held records chained from link cur
// on: the part of a bucket's reap allowance a walk has not passed yet. A
// record recycled under the count ends it early — the allowance only paces
// reaping, and condemning any free record is safe.
func (t *Tagged) heldFrom(cur uint64) (n uint64) {
	for linkIdx(cur) != 0 {
		r := t.rec(linkIdx(cur))
		next := r.next.Load()
		st := r.state.Load()
		if recGen(st) != linkGen(cur) {
			return n
		}
		if m := recMode(st); m == Read || m == Write {
			n++
		}
		cur = next &^ linkMark
	}
	return n
}

// bucket is one first-level slot: its chain head and its version floor
// (version.go), side by side so that a sample of a block with no record
// reads one cache line.
type bucket struct {
	head  atomic.Uint64 // chain head link {0, gen, idx}; 0 = empty
	floor atomic.Uint64 // stamp bound for the bucket's blocks with no record
}

// recSeg is one slab segment.
type recSeg [segSize]record

// record is one ownership record: the tagged equivalent of a tagless entry
// and its stamp, plus the tag and chain link. Every field is atomic because
// stale link holders may read a recycled record's fields before generation
// validation rejects them. Padded to a cache line so neighboring records
// never false-share.
type record struct {
	state atomic.Uint64 // {mode, gen, payload}; the linearization word
	next  atomic.Uint64 // chain link to successor, or marked free-list link while pooled
	tag   atomic.Uint64 // block tag; written only while private (invariant 1)
	// vers is the block's commit stamp (version.go): set from the bucket
	// floor while the record is private, then written only by its
	// exclusive writer, and folded into the floor when it is condemned.
	vers atomic.Uint64
	_    [32]byte
}

// stripe is one free list of retired records, padded to its own cache line.
type stripe struct {
	free atomic.Uint64 // marked {gen, idx} link of the top pooled record; idx 0 = empty
	_    [56]byte
}

// deadMode is the fourth, terminal state-word mode: condemned for removal.
// It exists so that condemnation and claiming contend on the same CAS.
// Records never expose it through the Table API.
const deadMode Mode = 3

// State word layout: bits 62..63 mode | bits 32..61 generation | bits 0..31
// payload (owner TxID when Write, sharer count when Read) — the tagless
// entry layout (payloadMask, tagless.go) with the generation in the middle
// bits. Link word layout: bit 63 mark | bits 32..61 generation | bits 0..31
// slab index.
const (
	recModeShift = 62
	recGenShift  = 32
	recGenMask   = 1<<30 - 1
	linkMark     = uint64(1) << 63
)

func packRec(m Mode, gen uint64, payload uint32) uint64 {
	return uint64(m)<<recModeShift | gen<<recGenShift | uint64(payload)
}

func recMode(w uint64) Mode      { return Mode(w >> recModeShift) }
func recGen(w uint64) uint64     { return (w >> recGenShift) & recGenMask }
func recPayload(w uint64) uint32 { return uint32(w & payloadMask) }

func mkLink(gen uint64, idx uint32) uint64 { return gen<<recGenShift | uint64(idx) }
func linkGen(w uint64) uint64              { return (w >> recGenShift) & recGenMask }
func linkIdx(w uint64) uint32              { return uint32(w & payloadMask) }

// defaultStripes is the number of free-list stripes. 256 keeps pool
// contention negligible for sane thread counts while bounding memory.
const defaultStripes = 256

// NewTagged builds a tagged chaining table sized and indexed by h.
func NewTagged(h hash.Func) *Tagged {
	n := h.N()
	stripes := uint64(defaultStripes)
	if n < stripes {
		stripes = n
	}
	t := &Tagged{
		h:       h,
		buckets: make([]bucket, n),
		stripes: make([]stripe, stripes),
		mask:    stripes - 1,
		segs:    make([]atomic.Pointer[recSeg], maxSegs),
	}
	t.nextIdx.Store(1) // slab index 0 is the nil link
	return t
}

// Kind implements Table.
func (t *Tagged) Kind() string { return "tagged" }

// N implements Table.
func (t *Tagged) N() uint64 { return t.h.N() }

// SlotOf implements Table: every block is its own slot, because records are
// per-block.
func (t *Tagged) SlotOf(b addr.Block) uint64 { return uint64(b) }

// SlotsAreBlocks implements Table: SlotOf is the identity.
func (t *Tagged) SlotsAreBlocks() bool { return true }

// rec dereferences a slab index. Indices come from links whose segment was
// published (with its records) before the link could exist, so the loads
// cannot observe a nil segment.
func (t *Tagged) rec(idx uint32) *record {
	return &t.segs[idx>>segShift].Load()[idx&segMask]
}

// stripeFor returns the free-list stripe covering bucket idx.
func (t *Tagged) stripeFor(idx uint64) *stripe { return &t.stripes[idx&t.mask] }

// alloc pops a pooled record from st or carves a fresh one from the slab.
// The returned record is private to the caller. Pool pops are ABA-proof
// without validation: free-list values carry the generation the record was
// retired under, and every publish bumps it, so a popped value can never
// recur at the top of the list.
func (t *Tagged) alloc(st *stripe) (uint32, *record) {
	for {
		top := st.free.Load()
		if linkIdx(top) == 0 {
			return t.allocSlab()
		}
		r := t.rec(linkIdx(top))
		next := r.next.Load()
		if st.free.CompareAndSwap(top, next) {
			return linkIdx(top), r
		}
	}
}

// allocSlab bump-allocates a never-pooled record, publishing its segment if
// the caller is first to need it. Records recycled across Reset keep their
// old generation, which alloc's callers read back from the state word — the
// generation only ever needs to be monotonic per slab slot, not zero-based.
func (t *Tagged) allocSlab() (uint32, *record) {
	idx := t.nextIdx.Add(1) - 1
	if idx >= maxRecords {
		panic(fmt.Sprintf("otable: tagged record slab exhausted (%d chained+pooled records)", maxRecords))
	}
	seg := idx >> segShift
	if t.segs[seg].Load() == nil {
		t.segs[seg].CompareAndSwap(nil, new(recSeg)) // loser's segment is dropped
	}
	return idx, &t.segs[seg].Load()[idx&segMask]
}

// retire pushes an unlinked (or never-published) record onto st's pool.
// The generation bump is stored FIRST, before the next field is turned
// into a pool link: walkers read a record's next before its state, so any
// walker that observes the pool link afterwards necessarily observes the
// bumped generation too and restarts instead of treating free-list
// structure as chain structure (invariant 2). Pool links also carry the
// mark bit, so the rare walker that caught the old state with the new
// next sees a frozen link whose splice CAS cannot land anywhere.
func (t *Tagged) retire(st *stripe, idx uint32, r *record) {
	g := (recGen(r.state.Load()) + 1) & recGenMask
	r.state.Store(packRec(Free, g, 0))
	for {
		top := st.free.Load()
		r.next.Store(top)
		if st.free.CompareAndSwap(top, mkLink(g, idx)|linkMark) {
			return
		}
	}
}

// unlink removes a condemned (Dead) record from its bucket chain: it
// freezes the outgoing link with the mark bit (skipped when the link is
// nil, which is permanent — invariant 3), splices through prev, and retires
// the record if its CAS was the one that won (invariant 5). It returns the
// clean successor link and whether this caller did the splice.
func (t *Tagged) unlink(idx uint64, r *record, rlink uint64, prev *atomic.Uint64) (uint64, bool) {
	if r.next.Load() == 0 {
		if prev.CompareAndSwap(rlink, 0) {
			t.retire(t.stripeFor(idx), linkIdx(rlink), r)
			return 0, true
		}
	}
	var next uint64
	for {
		next = r.next.Load()
		if next&linkMark != 0 {
			next &^= linkMark
			break
		}
		if r.next.CompareAndSwap(next, next|linkMark) {
			break
		}
	}
	if prev.CompareAndSwap(rlink, next) {
		t.retire(t.stripeFor(idx), linkIdx(rlink), r)
		return next, true
	}
	return next, false
}

// walk traverses bucket idx looking for the record tagged b — live or
// claimable. It returns the record, the state word it was matched under,
// and the link it was found under. On a miss it reports the head value its
// successful full scan started from, which is what makes insertion sound
// (invariant 6): inserts CAS the head against exactly that value, so any
// record for b published since the scan forces a re-walk.
//
// Per node the read order is tag, next, state; the state load doubles as
// the generation validation for all three (the tag is immutable while
// reachable, and the next link can only have gained a mark, by invariants
// 1 and 3). Any mismatch restarts from the head. Marked or condemned
// records are helped out of the chain; free records deeper than reapDepth
// are condemned and removed, bounding chains under tag-streaming workloads.
func (t *Tagged) walk(idx uint64, b addr.Block) (r *record, rst uint64, rlink uint64, headSeen uint64, depth uint64, found bool) {
restart:
	head := t.buckets[idx].head.Load()
	prevField := &t.buckets[idx].head
	cur := head
	depth = 0         // held records passed: chain-length statistics, reap allowance
	phys := uint64(0) // records passed in any state: traversal cost and reaping
	// allow is the bucket's held-record count, taken once the walk is deep
	// enough to reap (unset: all ones).
	allow := ^uint64(0)
	for linkIdx(cur) != 0 {
		rec := t.rec(linkIdx(cur))
		tag := rec.tag.Load()
		next := rec.next.Load()
		st := rec.state.Load()
		if recGen(st) != linkGen(cur) {
			goto restart // recycled under us: nothing read is trustworthy
		}
		mode := recMode(st)
		if mode == deadMode && next&linkMark != 0 {
			// Condemned and frozen: finish the removal. Only the condemner
			// marks (invariant 4) — a helper CASing the mark in could land
			// it on a recycled record whose next value happens to recur,
			// freezing a live link forever — so helpers act only on marks
			// they observe, which the next-then-state read order ties to
			// this dead incarnation.
			clean := next &^ linkMark
			if !prevField.CompareAndSwap(cur, clean) {
				goto restart
			}
			t.retire(t.stripeFor(idx), linkIdx(cur), rec)
			cur = clean
			continue
		}
		next &^= linkMark // strip a publish-window mark (invariant 7)
		if mode == deadMode {
			// Condemned but not yet frozen: the condemner is between its
			// state CAS and its mark. The record is logically absent and
			// its next is still a true incarnation link, so just walk
			// past; the condemner (or a later walk) finishes the removal.
			// Its stamp may not be in the floor yet, and an insert for b
			// must start above it: fold it here too.
			if tag == uint64(b) {
				t.fold(idx, rec)
			}
			phys++
			prevField = &rec.next
			cur = next
			continue
		}
		if mode == Free {
			if tag == uint64(b) {
				if phys > 0 {
					t.stats.at(idx).chainFollows.Add(phys)
				}
				return rec, st, cur, head, depth, true
			}
			if phys >= reapDepth && allow == ^uint64(0) {
				allow = depth + t.heldFrom(next)
			}
			if phys >= reapDepth && phys >= reapDepth+allow {
				// Deep free record (past the occupancy-adaptive threshold):
				// condemn it (arbitrating against a concurrent claim on the
				// state word), fold its now final stamp into the floor, and
				// splice it out with the predecessor we already hold.
				if !rec.state.CompareAndSwap(st, packRec(deadMode, linkGen(cur), 0)) {
					goto restart
				}
				t.fold(idx, rec)
				if clean, ok := t.unlink(idx, rec, cur, prevField); ok {
					cur = clean
					continue
				}
				goto restart
			}
		} else {
			if tag == uint64(b) {
				if phys > 0 {
					t.stats.at(idx).chainFollows.Add(phys)
				}
				return rec, st, cur, head, depth, true
			}
			depth++
		}
		phys++
		prevField = &rec.next
		cur = next
	}
	if phys > 1 {
		t.stats.at(idx).chainFollows.Add(phys - 1)
	}
	return nil, 0, 0, head, depth, false
}

// insertAt publishes a fresh record for b at the head of bucket idx with
// the given initial mode and payload. headSeen must be the head value a
// full walk that found no record for b started from; the head CAS against
// it is what keeps records unique per tag (invariant 6). It returns the
// published record's link (the caller's Handle); 0 means the publish lost
// and the caller must re-walk.
func (t *Tagged) insertAt(idx uint64, b addr.Block, m Mode, payload uint32, headSeen uint64, liveLen uint64) uint64 {
	st := t.stripeFor(idx)
	ridx, r := t.alloc(st)
	// Publishing bumps the generation (invariant 2): the state store below
	// is what invalidates any link or pending state CAS left over from the
	// record's previous incarnation.
	g := (recGen(r.state.Load()) + 1) & recGenMask
	if r.tag.Load() != uint64(b) {
		r.tag.Store(uint64(b))
	}
	// The walk that found no record for b ran after any earlier record for
	// b was condemned and folded, so the floor bounds b's stamps.
	r.vers.Store(t.buckets[idx].floor.Load())
	r.state.Store(packRec(m, g, payload))
	// The private next is stored marked (invariant 7): until the head CAS
	// publishes this record, no location outside the chain may expose an
	// unmarked link to a chained record — otherwise a stale helper that
	// stalled holding this (recycled) record's next field as its unlink
	// predecessor could land its splice CAS here while the true
	// predecessor's splice also succeeds, retiring the successor twice.
	r.next.Store(headSeen | linkMark)
	if !t.buckets[idx].head.CompareAndSwap(headSeen, mkLink(g, ridx)) {
		// Never published — but the generation was consumed by the state
		// store, so repool under it; the next cycle bumps it again.
		t.retire(st, ridx, r)
		return 0
	}
	// Published: this record is now the true predecessor of headSeen's
	// chain, so clear the publish mark and let it serve unlink CASes.
	// Release of the just-granted permission — the only path that could
	// condemn this record — cannot run before this store: the grant has
	// not yet been returned to the caller.
	r.next.Store(headSeen)
	c := t.stats.at(idx)
	if m == Write {
		c.writeOpens.Add(1)
	} else {
		c.readOpens.Add(1)
	}
	c.observeChain(liveLen + 1)
	return mkLink(g, ridx)
}

// fold raises bucket idx's floor to the stamp of rec, a record condemned
// under it, so that the bucket still answers for rec's block once the
// record is gone. A condemned record's stamp is final: only a holder writes
// it, and Dead records have none.
func (t *Tagged) fold(idx uint64, rec *record) {
	verRaise(&t.buckets[idx].floor, rec.vers.Load())
}

// AcquireReadH implements Table. The outcome linearizes at a single CAS:
// the head CAS for a fresh record, or the state CAS/load of the record for
// the tag. A denial's ConflictInfo is unpacked from the same
// generation-validated state word that decided it, so a reaped-and-reused
// record can never leak a stale owner. The handle is the record's {gen, idx}
// link — the caller's release/upgrade handle — or NoHandle on a conflict.
func (t *Tagged) AcquireReadH(tx TxID, b addr.Block) (Outcome, ConflictInfo, Handle) {
	idx := t.h.Index(b)
	for {
		r, st, rlink, headSeen, depth, found := t.walk(idx, b)
		if !found {
			if h := t.insertAt(idx, b, Read, 1, headSeen, depth); h != 0 {
				return Granted, NoConflict, Handle(h)
			}
			continue
		}
		g, c := linkGen(rlink), t.stats.at(idx)
		for {
			switch recMode(st) {
			case Free: // claim the parked record in place
				if r.state.CompareAndSwap(st, packRec(Read, g, 1)) {
					c.readOpens.Add(1)
					return Granted, NoConflict, Handle(rlink)
				}
			case Read:
				if r.state.CompareAndSwap(st, packRec(Read, g, recPayload(st)+1)) {
					c.reads.Add(1)
					return Granted, NoConflict, Handle(rlink)
				}
			case Write:
				if TxID(recPayload(st)) == tx {
					c.reads.Add(1)
					return AlreadyHeld, NoConflict, Handle(rlink)
				}
				c.conflicts.Add(1)
				return ConflictWriter, WriterConflict(TxID(recPayload(st))), NoHandle
			}
			if st = r.state.Load(); recGen(st) != g || recMode(st) == deadMode {
				break // condemned or recycled under us: re-walk
			}
		}
	}
}

// AcquireWriteH implements Table. Because records are per-block, a conflict
// here is always a *true* conflict: the same block is held by another
// transaction. With a valid handle for a held read share, the read→write
// upgrade is a single generation-validated state CAS with no chain walk;
// the bucket hash is computed up front either way, because it picks the
// counter block the upgrade is counted in.
func (t *Tagged) AcquireWriteH(tx TxID, b addr.Block, heldReads uint32, h Handle) (Outcome, ConflictInfo, Handle) {
	idx := t.h.Index(b)
	if h != NoHandle && heldReads > 0 {
		if out, ci, ok := t.upgradeByHandle(idx, tx, heldReads, uint64(h)); ok {
			return out, ci, h
		}
	}
	out, ci, link := t.acquireWriteAt(idx, tx, b, heldReads)
	return out, ci, Handle(link)
}

// upgradeByHandle attempts the read→write upgrade directly on the record
// named by handle link h, in bucket idx. It reports ok=false when the
// handle is stale (generation mismatch) or the record is not in a state the
// caller's read share could pin — the caller then falls back to the walking
// path, whose panics diagnose genuine bookkeeping bugs.
func (t *Tagged) upgradeByHandle(idx uint64, tx TxID, heldReads uint32, h uint64) (Outcome, ConflictInfo, bool) {
	r := t.rec(linkIdx(h))
	g := linkGen(h)
	for {
		st := r.state.Load()
		if recGen(st) != g || recMode(st) != Read {
			// Stale handle, or a state the caller's own share cannot explain
			// (its reads pin the record in Read mode): let the walk decide.
			return 0, NoConflict, false
		}
		payload := recPayload(st)
		if heldReads > payload {
			panic(fmt.Sprintf("otable: tagged record has %d sharers but tx %d claims %d held reads",
				payload, tx, heldReads))
		}
		if heldReads < payload {
			t.stats.at(idx).conflicts.Add(1)
			return ConflictReaders, ReadersConflict(payload - heldReads), true
		}
		if r.state.CompareAndSwap(st, packRec(Write, g, uint32(tx))) {
			t.stats.at(idx).upgrades.Add(1)
			return Upgraded, NoConflict, true
		}
	}
}

// acquireWriteAt is the walking write acquire on bucket idx. The
// read→write upgrade is one CAS from {Read, g, heldReads} to {Write, g,
// tx}: it can only succeed while the caller's shares are the record's whole
// sharer count, so a racing foreign reader either beats the CAS (and the
// retry observes ConflictReaders) or arrives after exclusivity is sealed.
// A denial's ConflictInfo comes from the same generation-validated state
// word; the third result is the record's handle link, 0 on a conflict.
func (t *Tagged) acquireWriteAt(idx uint64, tx TxID, b addr.Block, heldReads uint32) (Outcome, ConflictInfo, uint64) {
	for {
		r, st, rlink, headSeen, depth, found := t.walk(idx, b)
		if !found {
			if h := t.insertAt(idx, b, Write, uint32(tx), headSeen, depth); h != 0 {
				return Granted, NoConflict, h
			}
			continue
		}
		g, c := linkGen(rlink), t.stats.at(idx)
		for {
			switch recMode(st) {
			case Free: // claim the parked record in place
				if r.state.CompareAndSwap(st, packRec(Write, g, uint32(tx))) {
					c.writeOpens.Add(1)
					return Granted, NoConflict, rlink
				}
			case Read:
				payload := recPayload(st)
				if heldReads > payload {
					panic(fmt.Sprintf("otable: tagged record has %d sharers but tx %d claims %d held reads",
						payload, tx, heldReads))
				}
				if heldReads == payload {
					if r.state.CompareAndSwap(st, packRec(Write, g, uint32(tx))) {
						c.upgrades.Add(1)
						return Upgraded, NoConflict, rlink
					}
				} else {
					c.conflicts.Add(1)
					return ConflictReaders, ReadersConflict(payload - heldReads), 0
				}
			case Write:
				if TxID(recPayload(st)) == tx {
					c.writes.Add(1)
					return AlreadyHeld, NoConflict, rlink
				}
				c.conflicts.Add(1)
				return ConflictWriter, WriterConflict(TxID(recPayload(st))), 0
			}
			if st = r.state.Load(); recGen(st) != g || recMode(st) == deadMode {
				break // condemned or recycled under us: re-walk
			}
		}
	}
}

// ReleaseReadH implements Table: one generation-validated state CAS
// on the record the handle names, no chain walk. A stale or useless handle
// falls back to the walking release.
func (t *Tagged) ReleaseReadH(tx TxID, b addr.Block, h Handle) {
	idx := t.h.Index(b)
	if h == NoHandle {
		t.releaseReadAt(idx, tx, b)
		return
	}
	r, g, c := t.rec(linkIdx(uint64(h))), linkGen(uint64(h)), t.stats.at(idx)
	for {
		st := r.state.Load()
		if recGen(st) != g || recMode(st) != Read || recPayload(st) == 0 {
			// Stale handle (record reaped and reused since it was issued) or
			// a state a held share cannot explain: the walking release
			// decides, and panics on a genuine bookkeeping bug.
			t.releaseReadAt(idx, tx, b)
			return
		}
		if n := recPayload(st); n > 1 {
			if r.state.CompareAndSwap(st, packRec(Read, g, n-1)) {
				c.releases.Add(1)
				return
			}
		} else if r.state.CompareAndSwap(st, packRec(Free, g, 0)) {
			c.closes.Add(1)
			return
		}
	}
}

// releaseReadAt is the walking read release on bucket idx. The release
// linearizes at the state CAS; dropping the last share parks the
// record as Free in place — no physical removal, so the common
// release-then-reacquire cycle costs one CAS on each side. A holder's
// record cannot die or be recycled under it — its own shares pin the sharer
// count above zero — so the panic on a missing or non-read record is a
// caller bookkeeping bug, exactly as under a mutex-guarded table.
func (t *Tagged) releaseReadAt(idx uint64, tx TxID, b addr.Block) {
	r, st, rlink, _, _, found := t.walk(idx, b)
	if !found {
		panic(fmt.Sprintf("otable: ReleaseRead by tx %d on block %v with no read record", tx, b))
	}
	g, c := linkGen(rlink), t.stats.at(idx)
	for {
		if recMode(st) != Read || recPayload(st) == 0 {
			panic(fmt.Sprintf("otable: ReleaseRead by tx %d on block %v with no read record", tx, b))
		}
		if n := recPayload(st); n > 1 {
			if r.state.CompareAndSwap(st, packRec(Read, g, n-1)) {
				c.walkReleases.Add(1)
				return
			}
		} else if r.state.CompareAndSwap(st, packRec(Free, g, 0)) {
			c.walkCloses.Add(1)
			return
		}
		st = r.state.Load()
	}
}

// ReleaseWriteH implements Table: the abort-path release, which publishes no
// stamp (memory was never mutated, so the old stamp still describes it).
func (t *Tagged) ReleaseWriteH(tx TxID, b addr.Block, h Handle) {
	t.releaseWriteAt(t.h.Index(b), tx, b, h, 0)
}

// releaseWriteAt releases tx's write ownership of b in bucket idx: through
// the handle with no chain walk, or — with a stale or useless handle — by
// walking. Either way owner and mode are validated from the record's state
// word before the record's stamp is touched, so a release by anyone but the
// owner panics without side effects. The owner then publishes the stamp —
// one store: it is the record's only writer, and it drew the stamp while
// holding the record, above any stamp the record carries — and only then
// frees the record, so an acquire that finds it free, or a sample that finds
// no writer, also finds the stamp. A write record has exactly one
// legitimate releaser, so the state CAS can only be contended by bugs.
func (t *Tagged) releaseWriteAt(idx uint64, tx TxID, b addr.Block, h Handle, stamp uint64) {
	closes := &t.stats.at(idx).closes
	var r *record
	var st, g uint64
	if h != NoHandle {
		r, g = t.rec(linkIdx(uint64(h))), linkGen(uint64(h))
		st = r.state.Load()
	}
	if r == nil || recGen(st) != g || recMode(st) != Write || TxID(recPayload(st)) != tx {
		var rlink uint64
		var found bool
		r, st, rlink, _, _, found = t.walk(idx, b)
		if !found || recMode(st) != Write || TxID(recPayload(st)) != tx {
			panic(fmt.Sprintf("otable: ReleaseWrite by tx %d on block %v it does not own", tx, b))
		}
		g, closes = linkGen(rlink), &t.stats.at(idx).walkCloses
	}
	if stamp > r.vers.Load() {
		r.vers.Store(stamp)
	}
	if !r.state.CompareAndSwap(st, packRec(Free, g, 0)) {
		panic(fmt.Sprintf("otable: ReleaseWrite by tx %d on block %v it does not own", tx, b))
	}
	closes.Add(1)
}

// SampleVersion implements Table with loads only (version.go): one hash,
// then a walk to b's record, answered from its mode and stamp, or — when
// the chain holds no record for b — from the bucket floor.
func (t *Tagged) SampleVersion(b addr.Block) (uint64, bool) {
	bk := &t.buckets[t.h.Index(b)]
	for {
		r, st, link, head := t.find(bk, b)
		if r == nil {
			// The floor is loaded before the head is checked again, so a
			// record inserted since the walk began is caught instead of
			// answered for.
			floor := bk.floor.Load()
			if bk.head.Load() == head {
				return floor, false
			}
			continue
		}
		// The state was loaded first, as a tagless entry's mode is; the
		// generation, reloaded, says the stamp is the same incarnation's.
		v := r.vers.Load()
		if recGen(r.state.Load()) == linkGen(link) {
			return v, recMode(st) == Write
		}
	}
}

// find walks bucket bk with loads only to the first record tagged b and
// returns it with the state word and link it was validated under, or nil
// and the head the walk began from. That record is b's only live or free
// one, or a Dead one whose stamp is final: a fresh record for b would sit
// nearer the head.
func (t *Tagged) find(bk *bucket, b addr.Block) (r *record, st, link, head uint64) {
restart:
	head = bk.head.Load()
	for cur := head; linkIdx(cur) != 0; {
		rec := t.rec(linkIdx(cur))
		tag := rec.tag.Load()
		next := rec.next.Load()
		state := rec.state.Load()
		if recGen(state) != linkGen(cur) {
			goto restart // recycled under us, as in walk
		}
		if tag == uint64(b) {
			return rec, state, cur, head
		}
		cur = next &^ linkMark
	}
	return nil, 0, 0, head
}

// ReleaseWriteV implements Table.
func (t *Tagged) ReleaseWriteV(tx TxID, b addr.Block, h Handle, stamp uint64) {
	t.releaseWriteAt(t.h.Index(b), tx, b, h, stamp)
}

// StampVersion implements Table: it raises the stamp of b's record, which
// the caller holds for writing — or, with no record for b, the bucket
// floor. It raises by CAS, so a caller without the hold (a test's foreign
// commit) cannot lower a stamp either.
func (t *Tagged) StampVersion(b addr.Block, stamp uint64) {
	bk := &t.buckets[t.h.Index(b)]
	if r, st, _, _ := t.find(bk, b); r != nil && recMode(st) != deadMode {
		verRaise(&r.vers, stamp)
		return
	}
	verRaise(&bk.floor, stamp)
}

// Occupied implements Table: the number of held records, derived from the
// open/close event counters the grant and release transitions bump (see
// counters.occupied), so concurrent readers see a momentarily lagging
// value — exact whenever the table is quiescent. Every block has its own
// record, so this is also the number of blocks held.
func (t *Tagged) Occupied() uint64 { return t.stats.occupied() }

// ChainLengths returns a histogram of bucket chain lengths: result[k] is
// the number of buckets with exactly k held records (free parked records
// are not counted), for k up to the longest chain. Not safe to call
// concurrently with mutations.
func (t *Tagged) ChainLengths() []uint64 {
	var maxLen int
	lengths := make(map[int]uint64)
	for i := range t.buckets {
		n := 0
		for cur := t.buckets[i].head.Load(); linkIdx(cur) != 0; {
			r := t.rec(linkIdx(cur))
			if st := r.state.Load(); recGen(st) == linkGen(cur) {
				if m := recMode(st); m == Read || m == Write {
					n++
				}
			}
			cur = r.next.Load() &^ linkMark
		}
		lengths[n]++
		if n > maxLen {
			maxLen = n
		}
	}
	out := make([]uint64, maxLen+1)
	for k, c := range lengths {
		out[k] = c
	}
	return out
}

// Stats implements Table.
func (t *Tagged) Stats() Stats { return t.stats.snapshot() }

// Reset implements Table. Chains and pools are dropped and the slab bump
// allocator rewinds; slab segments are kept for reuse, and recycled slots
// keep their generations (monotonicity per slot is all correctness needs).
func (t *Tagged) Reset() {
	for i := range t.buckets {
		t.buckets[i].head.Store(0)
		t.buckets[i].floor.Store(0)
	}
	for i := range t.stripes {
		t.stripes[i].free.Store(0)
	}
	t.nextIdx.Store(1)
	t.stats.reset()
}
