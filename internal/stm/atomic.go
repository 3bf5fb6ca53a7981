package stm

import (
	"context"
	"math/bits"

	"tmbp/internal/opacity"
	"tmbp/internal/otable"
)

// conflictSignal is panicked internally on ownership conflicts and caught
// in Atomic; user code never observes it. A single preallocated sentinel is
// thrown so even the abort path stays allocation-free.
type conflictSignal struct{}

var conflictSentinel = &conflictSignal{}

// conflict aborts the current attempt, recording the denying opponent for
// the contention manager's Aborted callback.
func (th *Thread) conflict(ci otable.ConflictInfo) {
	th.opp = ci
	panic(conflictSentinel)
}

// Atomic runs fn as a transaction, retrying on conflicts until it commits,
// fn returns an error, or the attempt budget is exhausted. How the thread
// waits between retries is the contention manager's decision: randomized
// backoff unless Config.NewCM installs another policy.
// A non-nil error from fn aborts the transaction and is returned unchanged;
// memory is untouched in that case. Runtime failures (the MaxAttempts
// budget) are reported as a *AbortError wrapping ErrTooManyAttempts.
//
// Atomic must not be called from inside a running transaction's function on
// the same Thread: the nested call fails with ErrNestedAtomic, leaving the
// enclosing transaction intact.
func (th *Thread) Atomic(fn func(tx *Tx) error) error {
	return th.atomic(nil, fn)
}

// AtomicCtx is Atomic bounded by a context: cancellation and deadline are
// honored between attempts and inside every built-in wait (the backoff
// loop and the serial-fallback gate), so a blocked retry loop unwinds within a
// scheduler yield of the context ending. The attempt that was in flight
// when cancellation is detected has already rolled back — its ownership
// records are released and its Abort is recorded for opacity — and the
// returned *AbortError wraps ctx.Err() with the attempt count and the last
// denying opponent.
//
// Cancellation never races a commit's outcome: the context is only
// consulted before starting an attempt, so once an attempt reaches its
// commit point the transaction reports success even if the context was
// cancelled while committing. A nil ctx behaves exactly like Atomic.
func (th *Thread) AtomicCtx(ctx context.Context, fn func(tx *Tx) error) error {
	return th.atomic(ctx, fn)
}

// atomic is the shared retry loop behind Atomic and AtomicCtx.
func (th *Thread) atomic(ctx context.Context, fn func(tx *Tx) error) error {
	if th.active {
		return ErrNestedAtomic
	}
	th.active = true
	th.ctx = ctx
	serial := false
	defer func() {
		// The deferred form keeps the guard and gate consistent on every
		// exit, including a propagating user panic.
		if serial {
			th.rt.serialRelease()
		}
		th.streak = 0
		th.active = false
		th.ctx = nil
	}()
	th.attempts = 0
	th.opp = otable.NoConflict
	for {
		if ctx != nil && ctx.Err() != nil {
			// Between attempts: the previous attempt (if any) has rolled
			// back and released its records. Give the CM its completion
			// callback so per-transaction policy state resets.
			if th.attempts > 0 {
				th.cm.Committed(th.lastFP)
			}
			return th.abortError(ctx.Err())
		}
		if !serial && th.attempts >= th.rt.cfg.FallbackAfter {
			// FallbackAfter consecutive aborts: stop being optimistic. Take
			// the serial token and run with the runtime drained.
			if th.rt.serialAcquire(th) != nil {
				continue // cancelled: the context check above returns
			}
			serial = true
		}
		if serial {
			th.ctr.started.Add(1)
		} else if th.rt.serialEnter(th) != nil {
			continue // cancelled while parked at the gate
		}
		th.attempts++
		th.stamp = 0
		th.rv = th.rt.epoch.Load()
		// Loaded after rv: done == rv says every stamp up to rv is finished
		// unless a later one was drawn in between — and then the clock has
		// already moved past rv, which the first drained read finds. A
		// serial attempt's drain leaves done == epoch, so it reads drained.
		th.quiet = th.rt.done.Load() == th.rv
		if r := th.rec; r != nil {
			// Recorded before the attempt's first acquire: the Begin index
			// precedes every memory effect of the attempt.
			r.RecordEvent(opacity.Event{Kind: opacity.KindBegin,
				Thread: uint32(th.id), Attempt: int32(th.attempts)})
		}
		err, conflicted := th.attempt(fn)
		if !conflicted {
			th.cm.Committed(th.lastFP)
			if err != nil {
				return err // user abort
			}
			if serial {
				th.ctr.fbCommits.Add(1)
			}
			return nil // committed
		}
		th.ctr.aborts.Add(1)
		if th.roAbort {
			th.roAbort = false
			th.ctr.roValAborts.Add(1)
		}
		th.streak++
		if uint64(th.streak) > th.ctr.maxStreak.Load() {
			th.ctr.maxStreak.Store(uint64(th.streak))
		}
		if th.rt.cfg.MaxAttempts > 0 && th.attempts >= th.rt.cfg.MaxAttempts {
			th.cm.Committed(th.lastFP)
			return th.abortError(ErrTooManyAttempts)
		}
		th.cm.Aborted(th.attempts, th.lastFP, th.opp)
	}
}

// cancelled reports whether the in-flight AtomicCtx context has ended; it
// is the poll every waiter loop makes. Plain Atomic never cancels.
func (th *Thread) cancelled() bool {
	ctx := th.ctx
	return ctx != nil && ctx.Err() != nil
}

// Cancelled reports whether the context of the thread's in-flight AtomicCtx
// call has been cancelled or has expired. It is intended for custom CM
// policies (Config.NewCM): a policy that waits should poll Cancelled and
// return early when it reports true, exactly as the built-in backoff does —
// otherwise cancellation is honored only between attempts.
func (th *Thread) Cancelled() bool { return th.cancelled() }

// attempt runs fn once. It reports the user error (nil on commit) and
// whether the attempt was killed by an ownership conflict.
func (th *Thread) attempt(fn func(tx *Tx) error) (err error, conflicted bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != any(conflictSentinel) {
				th.rollback()
				// A user panic terminates the transaction: give the CM its
				// completion callback (resetting per-transaction policy
				// state) before propagating, as for any other completion.
				th.cm.Committed(th.lastFP)
				panic(r) // user panic: release ownership, propagate
			}
			th.rollback()
			conflicted = true
		}
	}()
	if err := fn(&th.tx); err != nil {
		th.rollback()
		return err, false
	}
	th.commit()
	return nil, false
}

// commit makes the transaction's writes visible and releases ownership:
// write-back happens strictly before release, so any transaction that later
// acquires a written block observes the committed values. Both phases are
// single walks of the dense access array in first-access order. A writing
// attempt draws its commit stamp, and validates its invisible reads, before
// the first word is written back (commitStamp). A read-only attempt draws
// nothing, so it never invalidates anyone's rv+1 shortcut, and is vacuously
// intact while the clock still reads rv — the expected case in read-mostly
// phases, making read-only commit O(1): neither the write-back nor the
// release walk runs for it. A failed validation unwinds into attempt's
// rollback with memory untouched.
func (th *Thread) commit() {
	var stamp uint64
	wrote := th.set.Len() != 0 // read before releaseAll empties the set
	if wrote {
		stamp = th.commitStamp()
		set := &th.set
		words := th.mem.words
		for i, n := 0, set.Len(); i < n; i++ {
			e := set.At(i)
			base := uint64(e.Chunk) << blockWordShift
			for m := e.WMask; m != 0; m &= m - 1 {
				w := uint64(bits.TrailingZeros8(m))
				words[base+w].Store(e.Vals[w])
			}
		}
	} else if th.rt.epoch.Load() != th.rv {
		th.revalidateReadSet(0)
	}
	th.releaseAll(stamp)
	// Counted after the releases: when the serial drain finds the attempt
	// ended, every record it held is free.
	th.ctr.commits.Add(1)
	if !wrote {
		// Read-only: the transaction read its whole footprint without a
		// single table acquire.
		th.ctr.roCommits.Add(1)
	}
	if r := th.rec; r != nil {
		// Recorded after write-back (and release): the Commit index
		// follows every memory effect of the attempt, so the recorded
		// [Begin, Commit] interval brackets the linearization point.
		r.RecordEvent(opacity.Event{Kind: opacity.KindCommit,
			Thread: uint32(th.id), Attempt: int32(th.attempts)})
	}
}

// rollback discards speculative state and releases ownership.
func (th *Thread) rollback() {
	th.releaseAll(0)
	th.ctr.rollbacks.Add(1) // after the releases, as commit counts commits
	if r := th.rec; r != nil {
		// Every rollback — conflict, user error, or user panic — closes
		// the recorded attempt, so traces stay quiescent.
		r.RecordEvent(opacity.Event{Kind: opacity.KindAbort,
			Thread: uint32(th.id), Attempt: int32(th.attempts)})
	}
}

// releaseAll returns every held slot to the table in first-write order —
// the access-set entries whose acquire was granted, each carrying its
// handle — and retires the set and the log.
// Each release is one generation-validated state CAS on the record the
// entry's handle names: the table is never re-walked on the commit or abort
// path.
//
// A writing commit passes the stamp commitStamp drew and every write release
// publishes it to its slot's version cell (strictly before ownership drops,
// see otable.Table.ReleaseWriteV). Read-only commits hold no write slots and
// draw no stamp, keeping the epoch==rv commit shortcut of concurrent
// invisible readers valid. Aborting walks pass 0, which publishes nothing:
// memory was never mutated, so the old stamps still describe it.
//
// An attempt that drew a stamp — committing, or rolled back by the
// validation after its draw — counts it finished in Runtime.done after the
// last release.
func (th *Thread) releaseAll(stamp uint64) {
	set := &th.set
	th.lastFP = len(th.dlog)
	for i, n := 0, set.Len(); i < n; i++ {
		e := set.At(i)
		if e.Hnd == 0 {
			continue // holds nothing: the slot was AlreadyHeld, or the acquire was denied
		}
		th.tab.ReleaseWriteV(th.id, e.Chunk, otable.Handle(e.Hnd), stamp)
	}
	set.Reset()
	th.clearLog()
	if th.stamp != 0 {
		th.rt.done.Add(1)
	}
}

// CM returns the thread's contention manager (for statistics and tests).
func (th *Thread) CM() CM { return th.cm }
