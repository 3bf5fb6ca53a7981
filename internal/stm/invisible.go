package stm

import (
	"tmbp/internal/addr"
	"tmbp/internal/otable"
	"tmbp/internal/txn"
)

// roConflict aborts an invisible attempt on a failed version validation.
// There is no table opponent to report — the conflicting writer already
// committed and left — so the CM sees NoConflict; the retry loop instead
// counts the kill against roLimit, bounding how long the attempt keeps
// betting on invisibility.
func (th *Thread) roConflict() {
	th.roAbort = true
	th.conflict(otable.NoConflict)
}

// roReadRetries bounds the sample-load-resample loop of an invisible read
// against version-cell churn before the attempt gives up.
const roReadRetries = 4

// readInvisibleMiss is the invisible first read of a chunk: validate-load-
// revalidate against the chunk's version cell, with no table traffic.
// A stamp at most rv with no active writer means memory holds exactly the
// state some committed prefix ≤ rv produced; an unchanged re-sample after
// the load means the load belongs to that state. The value is cached in the
// entry (RMask) so repeat reads are pure probes.
func (th *Thread) readInvisibleMiss(word uint64, chunk addr.Block, widx uint64) uint64 {
	tab := th.tab
	for tries := 0; ; tries++ {
		s1, locked := tab.SampleVersion(chunk)
		if locked {
			// A writer is mid-flight on the cell. Waiting here would bypass
			// the contention manager; abort and let it arbitrate.
			th.roConflict()
		}
		if s1 > th.rv {
			// The chunk committed after our snapshot. The rest of the read
			// set may still be untouched: try to slide the snapshot forward.
			th.extendSnapshot()
			if s1 > th.rv {
				// A genuine stamp cannot exceed an epoch value read after it
				// was published; only injected staleness lands here.
				th.roConflict()
			}
		}
		v := th.mem.words[word].Load()
		if s2, locked2 := tab.SampleVersion(chunk); !locked2 && s2 == s1 {
			e := th.desc.Set.Insert(chunk)
			e.Perm = txn.PermRead
			e.Ver = s1
			e.Vals[widx] = v
			e.RMask = 1 << widx
			return v
		}
		if tries >= roReadRetries {
			th.roConflict()
		}
	}
}

// readInvisibleHit is the invisible read of a new word in an already-read
// chunk: serve cached words from the entry's snapshot, and validate a fresh
// load by re-sampling the version cell. An unchanged stamp with no active
// writer pins the load to the same committed state entry.Ver named — any
// writer that committed the cell in between necessarily raised the stamp,
// and one still in flight shows in the writer count.
func (th *Thread) readInvisibleHit(e *txn.Access, word uint64, widx uint64) uint64 {
	if e.RMask&(1<<widx) != 0 {
		return e.Vals[widx]
	}
	v := th.mem.words[word].Load()
	if s, locked := th.tab.SampleVersion(e.Chunk); locked || s != e.Ver {
		th.roConflict()
	}
	e.Vals[widx] = v
	e.RMask |= 1 << widx
	return v
}

// readBlockInvisible is the invisible ReadBlock: record the chunk in the
// read set at its current stamp without loading a word. No re-sample is
// needed — there is no value whose consistency could be at stake, only the
// footprint's, which commit-time validation checks against Ver.
func (th *Thread) readBlockInvisible(b addr.Block) {
	s1, locked := th.tab.SampleVersion(b)
	if locked {
		th.roConflict()
	}
	if s1 > th.rv {
		th.extendSnapshot()
		if s1 > th.rv {
			th.roConflict()
		}
	}
	e := th.desc.Set.Insert(b)
	e.Perm = txn.PermRead
	e.Ver = s1
}

// extendSnapshot tries to slide an invisible attempt's epoch snapshot
// forward after a read observed a post-snapshot stamp: if every chunk read
// so far still carries exactly the stamp it was validated at, the reads all
// remain atomic at the *current* epoch and rv may advance to it (the LSA
// "lazy snapshot" extension). Any mismatch aborts.
func (th *Thread) extendSnapshot() {
	newRv := th.rt.epoch.Load()
	th.revalidateReadSet()
	th.rv = newRv
	th.ctr.roExtends.Add(1)
}

// validateReadSet is the commit-time check of an invisible attempt: every
// read chunk must still carry the stamp its reads were validated against.
// If the epoch clock itself has not moved since the snapshot, nothing
// anywhere committed a write and the read set is vacuously intact — the
// expected case for read-mostly phases, making read-only commit O(1).
func (th *Thread) validateReadSet() {
	if th.rt.epoch.Load() != th.rv {
		th.revalidateReadSet()
	}
}

// revalidateReadSet aborts the invisible attempt unless every chunk read so
// far is writer-free and still at the stamp it was validated at.
func (th *Thread) revalidateReadSet() {
	set := &th.desc.Set
	for i, n := 0, set.Len(); i < n; i++ {
		e := set.At(i)
		if s, locked := th.tab.SampleVersion(e.Chunk); locked || s != e.Ver {
			th.roConflict()
		}
	}
}

// promote transparently moves an invisible attempt onto the acquiring path
// at its first write: every chunk read so far gains real read ownership and
// is then revalidated, after which the ordinary encounter-time protocol
// (upgrade on write, release at end) applies unchanged. The already-read
// values stay valid — ownership now pins them — so user code never observes
// the switch.
func (th *Thread) promote() {
	th.invisible = false
	th.ctr.roPromotes.Add(1)
	set := &th.desc.Set
	for i, n := 0, set.Len(); i < n; i++ {
		th.promoteEntry(set.At(i))
	}
}

// promoteEntry acquires read ownership for one invisible entry and
// revalidates its stamp.
func (th *Thread) promoteEntry(e *txn.Access) {
	th.acquireReadChunk(e.Chunk, e)
	// Ownership (ours, or a covering earlier entry's) now pins the chunk
	// against writers; the stamp must still be the one the invisible reads
	// validated against. The writer count is deliberately ignored: a writer
	// on a chunk aliasing into the same cell may legitimately be active,
	// and a committed writer of *this* chunk would have raised the stamp
	// before our acquire could have succeeded.
	if s, _ := th.tab.SampleVersion(e.Chunk); s != e.Ver {
		th.roConflict()
	}
}
