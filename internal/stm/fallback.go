package stm

import "runtime"

// Serial-fallback gate: the HTM-style global-lock escape hatch. A thread
// whose transaction has aborted Config.FallbackAfter consecutive times
// stops being optimistic, takes a runtime-wide FIFO ticket, drains every
// in-flight optimistic attempt, and then runs its attempts with the
// guarantee that no optimistic opponent starts until it commits. "Why
// Transactional Memory Should Not Be Obstruction-Free" argues exactly this
// blocking fallback is the right escape hatch for a progressive TM.
//
// The gate is two counters on Runtime: fbTicket counts tickets ever issued,
// fbServing the ticket currently admitted. The gate is free exactly when
// they are equal. Protocol:
//
//   - Optimistic threads call serialWait before each attempt: while the
//     gate is busy they park in a cancellable yield loop, and only then
//     increment their started counter. The check-then-increment order
//     admits one benign race — an attempt that read "free" just before a
//     ticket was issued slips through — but such an attempt runs to
//     completion and bumps finished, so the holder's drain still
//     terminates; it never waits on a thread that is parked at the gate.
//   - The escalating thread takes a ticket (fbTicket.Add), waits its FIFO
//     turn, then drains: for every other registered thread it spins until
//     started == finished. From that point no optimistic attempt is in
//     flight and none can start.
//   - Release is fbServing.Add(1), in the Atomic-loop's deferred cleanup,
//     so the token survives retries (a faulty table can still abort the
//     serial holder) and is returned even on user panic.
//
// Queued tickets are positional, so a cancelled waiter cannot abandon its
// place: it waits for its turn and immediately passes the token on.
// Cancellation is therefore prompt everywhere except the (short) window
// where earlier ticket holders are themselves committing serially.

// serialBusy reports whether a serial token is issued and unreleased.
func (rt *Runtime) serialBusy() bool {
	return rt.fbServing.Load() != rt.fbTicket.Load()
}

// serialWait parks an optimistic thread while the serial gate is busy. It
// returns the context's error if th is cancelled while parked.
func (rt *Runtime) serialWait(th *Thread) error {
	for rt.serialBusy() {
		if th.cancelled() {
			return th.ctx.Err()
		}
		runtime.Gosched()
	}
	return nil
}

// serialAcquire takes the next FIFO ticket, waits for its turn, and drains
// every other thread's in-flight attempts. On success the caller holds the
// serial token and must release it with serialRelease. If th is cancelled
// during the drain the token is released and the context's error returned;
// cancellation while queued cannot skip the turn (tickets are positional),
// so the turn is taken and instantly passed on.
func (rt *Runtime) serialAcquire(th *Thread) error {
	ticket := rt.fbTicket.Add(1) - 1
	for rt.fbServing.Load() != ticket {
		runtime.Gosched()
	}
	if th.cancelled() {
		rt.serialRelease()
		return th.ctx.Err()
	}
	// Token held: no new optimistic attempt will start. Wait for the ones
	// already past the gate to finish (commit or roll back — either way
	// their records are released before finished is bumped).
	board := rt.board.Load()
	for _, c := range *board {
		if c == nil || c == th.ctr {
			// nil: a registration hole (see NewThread). That thread has run
			// no attempt yet, and its first will park at the gate.
			continue
		}
		for c.started.Load() != c.finished.Load() {
			if th.cancelled() {
				rt.serialRelease()
				return th.ctx.Err()
			}
			runtime.Gosched()
		}
	}
	return nil
}

// serialRelease passes the token to the next queued ticket, or frees the
// gate when the queue is empty.
func (rt *Runtime) serialRelease() {
	rt.fbServing.Add(1)
}
