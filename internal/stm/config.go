package stm

import (
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
)

// Recorder receives one opacity.Event per transactional operation: a Begin
// for every attempt, a Read/Write (with the memory word index and the
// observed/speculative value) for every Tx.Read/Tx.Write, and a
// Commit/Abort when the attempt completes. Implementations must be safe
// for concurrent use by all threads. The runtime orders the calls so the
// recorded history brackets the real memory effects: Begin is recorded
// before the attempt's first acquire, and Commit/Abort after write-back and
// release — which is exactly the real-time contract the offline opacity
// checker relies on. Only a recorder that keeps a history for that checker
// must assign the global event index, as opacity.Log, the standard
// implementation, does. The hook runs on the calling thread at every
// operation boundary, so tests also use it to perturb schedules: one that
// yields the processor there makes transactions interleave on few cores.
//
// Every transactional access is recorded. Non-transactional accesses
// (Memory.LoadDirect/StoreDirect) are not: they belong to no attempt, so
// they have no place in a transactional history.
//
// A nil Recorder (the default, and the only configuration benchmarks and
// production runs should use) costs one predictable branch per operation
// and zero allocations.
type Recorder interface {
	RecordEvent(opacity.Event)
}

// Config assembles an STM runtime.
type Config struct {
	// Table is the shared ownership table. Required.
	Table otable.Table
	// Memory is the word store transactions operate on. Required.
	Memory *Memory
	// InvisibleReaders is ignored. Every optimistic attempt reads by
	// version validation, and the runtime alone decides when a read takes
	// read ownership (see the package documentation). The frozen
	// benchmark/ module still sets it; it goes when that module next
	// changes.
	//
	// Deprecated: leave it unset; it has no effect.
	InvisibleReaders bool
	// MaxAttempts bounds the retries of one transaction (0 = unlimited).
	MaxAttempts int
	// BackoffBase is the initial backoff budget after an abort, measured
	// in scheduler yields; it doubles per consecutive abort up to 256
	// yields. Defaults to 4. Set BackoffBase = -1 to disable backoff
	// entirely (immediate retry).
	//
	// Backoff yields the processor rather than spinning: on machines with
	// few cores, spinning preserves the exact interleaving that caused the
	// conflict and deterministic workloads can phase-lock into livelock;
	// a randomized number of yields reshuffles the schedule.
	BackoffBase int
	// CM names a built-in policy. Backoff is the only one: New accepts ""
	// and "backoff" and rejects any other name. The frozen benchmark/
	// module still sets it; it goes when that module next changes.
	//
	// Deprecated: leave it empty; use NewCM for a custom policy.
	CM string
	// NewCM, when non-nil, replaces the built-in randomized backoff with a
	// custom per-thread policy constructor, called once from NewThread for
	// each thread.
	NewCM func(th *Thread) CM
	// FallbackAfter bounds how long a transaction stays optimistic: after
	// that many consecutive conflict aborts the thread escalates to the
	// runtime-wide serial token — a FIFO ticket that stops new optimistic
	// attempts, waits for in-flight ones to drain, and then runs the
	// starved transaction with no optimistic opponents at all (the
	// HTM-style global-lock fallback). Every abort counts toward the bound,
	// version-validation kills included: it is the one escape a reader
	// starved by committing writers has. Serial attempts read by version
	// validation like all others; with no optimistic attempt running nothing
	// commits into their read sets, so only a faulty table aborts one.
	// Commits made while holding the token are counted in
	// Stats.FallbackCommits. Zero (the default) means 8: the token is always
	// armed. A transaction run inside another thread's attempt must stop
	// (MaxAttempts) before it would escalate, as its drain would wait for the
	// enclosing attempt.
	FallbackAfter int
	// Recorder, when non-nil, receives the runtime's transactional history,
	// every transactional access included, for offline opacity checking (see
	// the Recorder interface and `tmbp check`). Nil disables recording at
	// zero cost.
	Recorder Recorder
	// Seed makes thread-local randomized backoff reproducible.
	Seed uint64
}
