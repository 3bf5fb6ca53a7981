package stm

import "runtime"

// Serial-fallback gate: the HTM-style global-lock escape hatch, always
// armed. A thread whose transaction has aborted Config.FallbackAfter
// consecutive times stops being optimistic, takes a runtime-wide FIFO
// ticket, drains every in-flight optimistic attempt, and then runs its
// attempts with no optimistic attempt running until it commits. "Why
// Transactional Memory Should Not Be Obstruction-Free" argues exactly this
// blocking fallback is the right escape hatch for a progressive TM.
//
// The gate is two counters on Runtime: fbTicket counts tickets ever issued,
// fbServing the ticket currently admitted. The gate is free exactly when
// they are equal. Protocol:
//
//   - Every attempt bumps its thread's started counter as it begins and ends
//     in exactly one of commits and rollbacks, bumped after its releases.
//   - An optimistic attempt bumps started before it reads the gate
//     (serialEnter). If the gate is busy it takes the attempt back, counting
//     it in rollbacks, and parks until the gate is free. Either a ticket
//     precedes the bump, and the attempt sees the gate busy, or the bump
//     precedes the ticket, and the drain waits for the attempt.
//   - The escalating thread takes a ticket (fbTicket.Add), waits its FIFO
//     turn, then drains: for every other registered thread it spins until
//     started == commits + rollbacks. From then on no optimistic attempt
//     runs, so without fault injection the serial attempt commits: no
//     transaction aborts more than FallbackAfter times in a row.
//   - Release is fbServing.Add(1), in the Atomic-loop's deferred cleanup,
//     so the token survives retries (a faulty table can still abort the
//     serial holder) and is returned even on user panic.
//
// Queued tickets are positional, so a cancelled waiter cannot abandon its
// place: it waits for its turn and immediately passes the token on.
// Cancellation is therefore prompt everywhere except the (short) window
// where earlier ticket holders are themselves committing serially.

// defaultFallbackAfter is the bound New gives Config.FallbackAfter = 0.
const defaultFallbackAfter = 8

// serialBusy reports whether a serial token is issued and unreleased.
func (rt *Runtime) serialBusy() bool {
	return rt.fbServing.Load() != rt.fbTicket.Load()
}

// serialEnter counts an optimistic attempt of th started once the gate is
// free. If th is cancelled while parked it returns the context's error,
// with the attempt counted back.
func (rt *Runtime) serialEnter(th *Thread) error {
	for {
		th.ctr.started.Add(1)
		if !rt.serialBusy() {
			return nil
		}
		th.ctr.rollbacks.Add(1)
		for rt.serialBusy() {
			if th.cancelled() {
				return th.ctx.Err()
			}
			runtime.Gosched()
		}
	}
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
	board := rt.board.Load()
	for _, c := range *board {
		if c == nil || c == th.ctr {
			// nil: a registration hole (see NewThread). That thread has run
			// no attempt yet, and its first will park at the gate.
			continue
		}
		// started is loaded first: a thread runs one attempt at a time and
		// its counters only grow, so ends that reach it cover every attempt
		// the thread had begun.
		for c.started.Load() != c.commits.Load()+c.rollbacks.Load() {
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
