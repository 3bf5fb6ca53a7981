package stm

import (
	"runtime"

	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// Contention management: what a thread does between an aborted attempt and
// its retry. The paper's runtime model stops at "self-abort with backoff",
// and that is the one built-in policy: randomized exponential backoff in
// scheduler yields. Atomic's retry loop consults a per-thread CM at the two
// points that matter (after a conflict abort — with the opponent — and
// after a completed transaction), and everything else about the runtime is
// policy-agnostic. Policies only ever change scheduling — who waits and for
// how long — never what commits, so serializability does not depend on
// them.
//
// Progress under sustained contention is not the policy's job: the serial
// fallback (Config.FallbackAfter) bounds how long any transaction stays
// optimistic, whatever the policy does. Every denial still carries an
// otable.ConflictInfo naming the owning writer (or the foreign sharer
// count), extracted from the same state word the acquire linearized on, and
// the runtime hands it to Aborted — so a custom policy installed through
// Config.NewCM can be opponent-aware without the runtime knowing.

// CM is the per-thread contention manager consulted by Atomic's retry
// loop. Implementations are owned by a single thread and need no internal
// synchronization (shared feedback state must synchronize on its own).
// Aborted may block; that is the point — but a block must be
// interruptible: the built-in policy waits through the thread's waiter,
// whose yield loop polls the in-flight AtomicCtx context and gives up as
// soon as it is cancelled. Custom policies that wait should poll
// Thread.Cancelled the same way, or cancellation is only honored between
// attempts.
type CM interface {
	// Kind names the policy ("backoff" for the built-in).
	Kind() string
	// Aborted is called after a conflict-aborted attempt, before the retry.
	// attempt is the 1-based attempt number that just failed; footprint is
	// the number of distinct chunks the attempt had accessed when it died
	// (Tx.FootprintBlocks); opp names
	// the opponent whose holding denied the fatal acquire (the owning
	// writer's TxID, or the foreign reader count — see otable.ConflictInfo).
	// The policy waits here as it sees fit.
	Aborted(attempt, footprint int, opp otable.ConflictInfo)
	// Committed is called when a transaction completes — commit or
	// terminal non-conflict abort (user error, attempt budget) — with the
	// final footprint. Policies reset per-transaction state here.
	Committed(footprint int)
}

// newCM builds thread th's contention manager from the runtime config.
func newCM(rt *Runtime, th *Thread) CM {
	if rt.cfg.NewCM != nil {
		return rt.cfg.NewCM(th)
	}
	return &backoffCM{w: &th.w, base: rt.cfg.BackoffBase}
}

// waiter is the one waiting primitive of the runtime: the backoff policy
// and the serial-fallback gate both park in a waiter yield loop, and every
// iteration of every such loop polls the owning thread's in-flight context.
// That single choke point is what makes the runtime's waits interruptible —
// cancelling an AtomicCtx context unparks the thread within one scheduler
// yield, without any wait-side channels or timers. When no context is in
// flight (plain Atomic) the poll is a nil check.
//
// A waiter is embedded in its Thread and owned by it; like the policy it
// serves, it needs no synchronization.
type waiter struct {
	rng *xrand.Rand
	th  *Thread
}

// backoff yields the processor a randomized number of times, bounded by an
// exponentially growing limit. Yielding (rather than spinning) lets the
// conflicting transaction finish and — critically — reshuffles the
// goroutine schedule, which breaks the phase-locked retry cycles that
// deterministic workloads otherwise fall into on machines with few cores.
// The limit starts at base and stops at backoffMax; base < 0 disables
// waiting entirely. The wait ends early when the thread's context is
// cancelled.
func (w *waiter) backoff(base, attempt int) {
	if base < 0 {
		return
	}
	limit := min(base<<uint(min(attempt-1, 20)), backoffMax)
	if limit <= 0 {
		return
	}
	yields := w.rng.Intn(limit) + 1
	for i := 0; i < yields; i++ {
		if !w.yield() {
			return
		}
	}
}

// yield gives up the processor once, unless the thread's context has ended;
// it reports whether the wait may go on. Every wait inside an attempt is a
// bounded loop of yields (invisible.go).
func (w *waiter) yield() bool {
	if w.th.cancelled() {
		return false
	}
	runtime.Gosched()
	return true
}

// backoffMax caps the backoff yield budget of every retry.
const backoffMax = 256

// backoffCM is the built-in policy: randomized exponential backoff between
// Config.BackoffBase and backoffMax scheduler yields.
type backoffCM struct {
	w    *waiter
	base int
}

func (c *backoffCM) Kind() string { return "backoff" }

func (c *backoffCM) Aborted(attempt, _ int, _ otable.ConflictInfo) {
	c.w.backoff(c.base, attempt)
}

func (c *backoffCM) Committed(int) {}
