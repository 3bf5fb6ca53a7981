// Package fault wraps an ownership table in a seeded, deterministic fault
// injector, so the STM runtime's bounded-time machinery — interruptible CM
// waits, the serial-fallback gate, leak-free rollback — can be proved under
// adversity instead of assumed.
//
// The injector perturbs the table's behavior in four ways, all driven by a
// splitmix hash of (seed, operation index) and never by wall-clock time or
// scheduling, so a run is exactly reproducible from its Config:
//
//   - Spurious denials: a fraction (DenyRate) of acquires is denied before
//     the underlying table is consulted, reporting a phantom opponent. To
//     the STM this is indistinguishable from losing a race that evaporated
//     by the retry — the hardest kind of conflict to manage, since waiting
//     on the reported opponent can never succeed directly.
//   - Forced abort at the k-th operation: DenyNth denies exactly one
//     acquire per run by global operation index, pinning a failure to a
//     reproducible point in the schedule.
//   - Stalls: one designated transaction (StallTx) is suspended for
//     StallYields scheduler yields at every acquire and release boundary,
//     simulating a thread preempted mid-critical-path while it holds
//     ownership other threads want.
//   - Delayed releases: a fraction (DelayReleaseRate) of releases spins
//     for DelayYields yields before returning ownership, stretching the
//     window in which a completed transaction still blocks its slots.
//
// Because denials happen before delegation they leave no state in the
// underlying table, and stalls/delays only defer work that still runs to
// completion: the injector never breaks the table's ownership discipline,
// only the timing and success assumptions layered on top of it. After a
// workload quiesces, otable.AuditQuiesced(inj.Underlying()) must still
// find zero held records — that invariant is exactly what the robustness
// suite asserts.
package fault

import (
	"runtime"
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// PhantomTx is the opponent the injector blames for spurious write-denials.
// It is deliberately far outside the range of registered thread IDs, as a
// real foreign table user's would be: a CM policy that looks the opponent
// up finds no registered thread.
const PhantomTx otable.TxID = 0xfa_0175

// Config selects the faults to inject. The zero value injects nothing.
type Config struct {
	// Seed drives every probabilistic decision; same seed, same table
	// kind, and same operation order means the same faults.
	Seed uint64
	// DenyRate is the probability in [0, 1] that an acquire is spuriously
	// denied before the underlying table sees it.
	DenyRate float64
	// DenyNth, when nonzero, denies the acquire with global operation
	// index DenyNth (1-based), independent of DenyRate.
	DenyNth uint64
	// StallTx, when nonzero, names the transaction to suspend at every
	// acquire and release boundary.
	StallTx otable.TxID
	// StallYields is how many scheduler yields each StallTx stall lasts
	// (default 64 when StallTx is set).
	StallYields int
	// DelayReleaseRate is the probability in [0, 1] that a release is
	// delayed by DelayYields scheduler yields before taking effect.
	DelayReleaseRate float64
	// DelayYields is the length of a delayed release (default 16).
	DelayYields int
	// StaleVersionRate is the probability in [0, 1] that a SampleVersion
	// result is perturbed before the invisible-reader path sees it,
	// modelling a reader racing a version cell it mis-sampled. The
	// perturbation adds a constant far above any genuine stamp, so it can
	// make a validation spuriously fail (or a read spuriously observe a
	// "future" stamp) but never make a mismatched pair spuriously agree:
	// injected staleness costs invisible readers aborts, never soundness.
	// Stamp *writes* (ReleaseWriteV, StampVersion) are never perturbed —
	// the injector breaks observations, not the version protocol's state.
	StaleVersionRate float64
}

// Stats counts what the injector actually did.
type Stats struct {
	Ops     uint64 // table operations that passed through the injector
	Denied  uint64 // acquires spuriously denied
	Stalled uint64 // stalls imposed on StallTx
	Delayed uint64 // releases delayed
	Staled  uint64 // version samples perturbed
}

// Injector is an otable.Table that forwards to an underlying table,
// injecting the faults its Config selects. It is safe for concurrent use;
// all injector state is atomic.
type Injector struct {
	tab otable.Table
	cfg Config

	// denyBar, delayBar, and staleBar are cfg rates pre-scaled to uint64
	// thresholds, so the per-op decision is one Mix64 and one compare.
	denyBar  uint64
	delayBar uint64
	staleBar uint64

	ops     atomic.Uint64
	denied  atomic.Uint64
	stalled atomic.Uint64
	delayed atomic.Uint64
	staled  atomic.Uint64
}

// New wraps tab in an Injector.
func New(tab otable.Table, cfg Config) *Injector {
	if cfg.StallTx != 0 && cfg.StallYields == 0 {
		cfg.StallYields = 64
	}
	if cfg.DelayReleaseRate > 0 && cfg.DelayYields == 0 {
		cfg.DelayYields = 16
	}
	return &Injector{tab: tab, cfg: cfg, denyBar: rateBar(cfg.DenyRate),
		delayBar: rateBar(cfg.DelayReleaseRate), staleBar: rateBar(cfg.StaleVersionRate)}
}

// rateBar converts a probability in [0, 1] to a threshold on a uniform
// 64-bit hash: hash < bar with probability rate.
func rateBar(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// Underlying returns the wrapped table, for audits and direct statistics.
func (inj *Injector) Underlying() otable.Table { return inj.tab }

// Stats forwards the wrapped table's operation counters, satisfying
// otable.Table; the injector's own counters are at FaultStats.
func (inj *Injector) Stats() otable.Stats { return inj.tab.Stats() }

// FaultStats returns a snapshot of the injector's own counters.
func (inj *Injector) FaultStats() Stats {
	return Stats{
		Ops:     inj.ops.Load(),
		Denied:  inj.denied.Load(),
		Stalled: inj.stalled.Load(),
		Delayed: inj.delayed.Load(),
		Staled:  inj.staled.Load(),
	}
}

// step assigns the operation its global index and reports the decision
// hash for that index. Indexes are 1-based so DenyNth == 0 means "never".
func (inj *Injector) step() (op uint64, h uint64) {
	op = inj.ops.Add(1)
	return op, xrand.Mix64(inj.cfg.Seed ^ op)
}

// deny reports whether the acquire with index op / hash h is spuriously
// denied, and fabricates the ConflictInfo the caller should report.
// Reads are denied by a phantom writer. Writes holding read shares are
// denied as failed upgrades (an anonymous foreign reader), matching what
// a real table reports in that state; fresh writes alternate between the
// two conflict shapes on a hash bit so both CM paths see injection.
func (inj *Injector) deny(op, h uint64, write bool, heldReads uint32) (otable.Outcome, otable.ConflictInfo, bool) {
	if h >= inj.denyBar && op != inj.cfg.DenyNth {
		return 0, otable.NoConflict, false
	}
	inj.denied.Add(1)
	if !write {
		return otable.ConflictWriter, otable.WriterConflict(PhantomTx), true
	}
	if heldReads > 0 || h&(1<<40) != 0 {
		return otable.ConflictReaders, otable.ReadersConflict(1), true
	}
	return otable.ConflictWriter, otable.WriterConflict(PhantomTx), true
}

// stall suspends tx for the configured yields when it is the stall target.
func (inj *Injector) stall(tx otable.TxID) {
	if tx != 0 && tx == inj.cfg.StallTx {
		inj.stalled.Add(1)
		for i := 0; i < inj.cfg.StallYields; i++ {
			runtime.Gosched()
		}
	}
}

// delay spins before a release when the hash selects it.
func (inj *Injector) delay(h uint64) {
	// Rotate the hash so denial and delay decisions for the same op index
	// are independent bits of the same mix.
	if h>>1|h<<63 >= inj.delayBar && inj.delayBar != ^uint64(0) {
		return
	}
	inj.delayed.Add(1)
	for i := 0; i < inj.cfg.DelayYields; i++ {
		runtime.Gosched()
	}
}

// Kind names the wrapped table's kind with a fault prefix.
func (inj *Injector) Kind() string { return "fault+" + inj.tab.Kind() }

// N returns the wrapped table's first-level entry count.
func (inj *Injector) N() uint64 { return inj.tab.N() }

// SlotOf forwards to the wrapped table.
func (inj *Injector) SlotOf(b addr.Block) uint64 { return inj.tab.SlotOf(b) }

// SlotsAreBlocks forwards the wrapped table's slotting claim.
func (inj *Injector) SlotsAreBlocks() bool { return inj.tab.SlotsAreBlocks() }

// Occupied forwards to the wrapped table.
func (inj *Injector) Occupied() uint64 { return inj.tab.Occupied() }

// Reset resets the wrapped table and zeroes the injector's counters (the
// fault schedule restarts from operation 1).
func (inj *Injector) Reset() {
	inj.tab.Reset()
	inj.ops.Store(0)
	inj.denied.Store(0)
	inj.stalled.Store(0)
	inj.delayed.Store(0)
	inj.staled.Store(0)
}

// AcquireReadH injects stalls and spurious denials around the table's own
// read acquire.
func (inj *Injector) AcquireReadH(tx otable.TxID, b addr.Block) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	inj.stall(tx)
	op, h := inj.step()
	if out, ci, hit := inj.deny(op, h, false, 0); hit {
		return out, ci, otable.NoHandle
	}
	return inj.tab.AcquireReadH(tx, b)
}

// AcquireWriteH injects stalls and spurious denials around the table's own
// write acquire.
func (inj *Injector) AcquireWriteH(tx otable.TxID, b addr.Block, heldReads uint32, hnd otable.Handle) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	inj.stall(tx)
	op, h := inj.step()
	if out, ci, hit := inj.deny(op, h, true, heldReads); hit {
		return out, ci, otable.NoHandle
	}
	return inj.tab.AcquireWriteH(tx, b, heldReads, hnd)
}

// beforeRelease injects the stall and delay every release passes through.
// The release itself always reaches the table: faults defer ownership
// return, never lose it.
func (inj *Injector) beforeRelease(tx otable.TxID) {
	inj.stall(tx)
	_, h := inj.step()
	inj.delay(h)
}

// ReleaseReadH injects stalls and delays, then releases.
func (inj *Injector) ReleaseReadH(tx otable.TxID, b addr.Block, hnd otable.Handle) {
	inj.beforeRelease(tx)
	inj.tab.ReleaseReadH(tx, b, hnd)
}

// ReleaseWriteH injects stalls and delays, then releases.
func (inj *Injector) ReleaseWriteH(tx otable.TxID, b addr.Block, hnd otable.Handle) {
	inj.beforeRelease(tx)
	inj.tab.ReleaseWriteH(tx, b, hnd)
}

// ReleaseWriteV forwards the stamped release with the usual stall/delay
// treatment; the stamp itself is never perturbed.
func (inj *Injector) ReleaseWriteV(tx otable.TxID, b addr.Block, hnd otable.Handle, stamp uint64) {
	inj.beforeRelease(tx)
	inj.tab.ReleaseWriteV(tx, b, hnd, stamp)
}

// staleSkew is what a perturbed version sample is offset by: far above any
// stamp a test run can genuinely produce, so a perturbed sample never
// collides with a real one. Two perturbed samples of one cell agree only
// when the true stamps agree — perturbation is injective, and injected
// staleness therefore only ever *fails* validations that would have
// passed, never the reverse.
const staleSkew uint64 = 1 << 50

// SampleVersion forwards the sample, perturbing a StaleVersionRate fraction
// of results. The sampling hot path consumes no operation index when stale
// injection is off, so configs without it keep their exact fault schedules.
func (inj *Injector) SampleVersion(b addr.Block) (uint64, bool) {
	s, locked := inj.tab.SampleVersion(b)
	if inj.staleBar != 0 {
		if _, h := inj.step(); h < inj.staleBar {
			inj.staled.Add(1)
			s += staleSkew
		}
	}
	return s, locked
}

// StampVersion forwards the stamp raise untouched.
func (inj *Injector) StampVersion(b addr.Block, stamp uint64) {
	inj.tab.StampVersion(b, stamp)
}
