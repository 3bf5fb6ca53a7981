package stm

import (
	"fmt"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
)

// LoadNT performs a non-transactional read of address a according to the
// runtime's isolation level. Under StrongIsolation it returns an error if a
// transaction holds the chunk with write permission.
//
// The strong read takes no ownership: it brackets its one load between two
// version samples of the chunk, as a transactional first read does on a
// moved clock. A writer in either sample denies it, unless the writer is
// the calling thread's own active transaction, whose hold keeps the word
// still: then memory is returned (not the transaction's redo value). A
// stamp that moved between the samples with no writer seen means a commit
// landed around the load; the read is taken again, at most roReadRetries
// times before it is denied. Like StoreNT it is safe to call from inside
// Atomic: it neither takes nor drops any of the transaction's holdings.
func (th *Thread) LoadNT(a addr.Addr) (uint64, error) {
	w := &th.mem.words[th.mem.index(a)]
	if th.rt.cfg.Isolation == WeakIsolation {
		return w.Load(), nil
	}
	th.ctr.ntReads.Add(1)
	chunk := addr.BlockOf(a)
	for tries := 0; tries <= roReadRetries; tries++ {
		s1, locked := th.tab.SampleVersion(chunk)
		if !locked {
			v := w.Load()
			var s2 uint64
			if s2, locked = th.tab.SampleVersion(chunk); !locked && s2 == s1 {
				return v, nil
			}
		} else if th.holdsCell(chunk) {
			return w.Load(), nil
		}
		if locked {
			th.ctr.ntConfl.Add(1)
			return 0, fmt.Errorf("stm: non-transactional read of %v denied: a transaction holds it", a)
		}
	}
	th.ctr.ntConfl.Add(1)
	return 0, fmt.Errorf("stm: non-transactional read of %v denied: commits kept landing around the load", a)
}

// StoreNT performs a non-transactional write; under StrongIsolation it is
// denied while any transaction holds the chunk, and while the calling
// thread's own active transaction has read it without writing it, which a
// non-transactional write may not silently invalidate. Another thread's
// reads hold nothing it could be denied on, serial or not: the store stamps
// the chunk and their validation fails. If the calling thread's transaction
// holds the chunk exclusively the store is applied immediately and may
// later be overwritten by the transaction's own commit write-back.
//
// The store touches exactly one table slot and releases exactly what it
// acquired, never the thread's transactional holdings, so it is safe to
// call from inside Atomic, where an active transaction's footprint must
// survive it. (An earlier design routed NT probes through the thread's
// shared footprint and released it wholesale — silently dropping a live
// transaction's ownership.)
func (th *Thread) StoreNT(a addr.Addr, v uint64) error {
	// Validated before any acquire: a bad address panics holding nothing.
	w := &th.mem.words[th.mem.index(a)]
	if th.rt.cfg.Isolation == WeakIsolation {
		w.Store(v)
		return nil
	}
	th.ctr.ntReads.Add(1)
	chunk := addr.BlockOf(a)
	if th.reading(chunk) {
		// A read holds nothing the table could deny on: stored and stamped,
		// the write would kill the caller's own attempt in validation, and
		// its retry would store again.
		th.ctr.ntConfl.Add(1)
		return fmt.Errorf("stm: non-transactional write of %v denied: the calling thread's transaction has read it", a)
	}
	out, ci, hnd := th.tab.AcquireWriteH(th.id, chunk, 0, otable.NoHandle)
	if out.Conflict() {
		th.ctr.ntConfl.Add(1)
		return fmt.Errorf("stm: non-transactional write of %v denied: %v (%v)", a, out, ci)
	}
	// Drawn before memory changes and with the cell showing the writer, as
	// in a commit: the rule the Ver invariant (invisible.go) rests on.
	stamp := th.rt.epoch.Add(1)
	w.Store(v)
	if out == otable.Granted {
		th.tab.ReleaseWriteV(th.id, chunk, hnd, stamp)
	} else {
		// AlreadyHeld: the store went through under the calling thread's own
		// exclusive ownership and survives even if that transaction aborts —
		// the release obligation stays with the transaction, but memory has
		// already changed, so the version cell must advance immediately or a
		// concurrent invisible reader could validate a torn mix.
		th.tab.StampVersion(chunk, stamp)
	}
	th.rt.done.Add(1) // stored and published: the stamp is finished
	return nil
}
