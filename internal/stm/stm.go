// Package stm is a word-based software transactional memory built on the
// ownership tables of package otable. It is the runtime the paper's
// analysis applies to: transactions execute optimistically, acquire
// ownership of the cache blocks they touch at encounter time through a
// central ownership table, buffer writes in a redo log, and roll back when
// a conflict — true or false — is detected.
//
// The metadata organization is pluggable: running the same program against
// a tagless table and a tagged table exposes exactly the false-conflict
// behavior the paper quantifies (tagless aborts on aliasing accesses the
// tagged table runs conflict-free).
//
// Concurrency control is encounter-time two-phase locking over ownership
// table slots: permissions are acquired before data access and held until
// commit or abort, which yields serializable transactions. Contention
// management is self-abort with a pluggable between-retry policy — fixed
// exponential backoff, abort-rate-adaptive backoff, karma seniority,
// greedy/timestamp opponent waiting, or abort-rate-driven switching —
// selected by Config.CM (see the CM interface in cm.go). Denied acquires
// report the denying opponent (otable.ConflictInfo), which the runtime
// hands to the policy's Aborted callback so opponent-aware policies can
// wait on the specific transaction that blocked them. Policies only
// reschedule retries; they never change what commits.
//
// # The unified per-thread log
//
// The per-thread bookkeeping the paper calls "the private per-thread log"
// is one open-addressed, insertion-ordered access set (txn.AccessSet)
// keyed by chunk. Each entry carries the chunk's permission bits, its
// ownership-table slot key and release obligation, and the redo values of
// the chunk's words inline, so the hot path does exactly one probe per
// transactional Read or Write — where the earlier design did up to four
// map operations across a redo log, two footprint sets, and the slot map —
// and commit/abort walk the dense entry array once, writing back
// speculative values and releasing slots in first-access order. Small
// transactions live entirely in an inline array inside the Thread; larger
// footprints spill to a growable probe table whose capacity is retained
// across attempts and transactions, and retirement is a generation-counter
// bump rather than per-entry deletes. Together with a reused Tx handle and
// the tagged table's in-place record reuse, a steady-state transaction
// performs zero heap allocations end to end.
//
// # Lock-free tables and release ordering
//
// Every ownership-table organization is lock-free: acquires and releases
// linearize at single CAS operations (see package otable). The STM relies
// on exactly one ordering property from that contract: a transaction that
// wins a slot after another transaction's release observes every memory
// write the releaser performed before calling Release. Commit therefore
// writes back the redo log strictly before releasing any slot, and both
// phases walk the access set in first-access order; abort releases the
// same way with no write-back. Nothing else about commit/abort
// synchronizes with concurrent acquirers — there is no table-wide quiesce
// to wait on, which is what lets unrelated transactions commit through
// the same buckets completely in parallel.
package stm

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/opacity"
	"tmbp/internal/otable"
	"tmbp/internal/txn"
	"tmbp/internal/xrand"
)

// Recorder receives one opacity.Event per transactional operation: a Begin
// for every attempt, a Read/Write (with the memory word index and the
// observed/speculative value) for every Tx.Read/Tx.Write, and a
// Commit/Abort when the attempt completes. Implementations must be safe
// for concurrent use by all threads and are expected to assign the global
// event index (see opacity.Log, the standard implementation). The runtime
// orders the calls so the recorded history brackets the real memory
// effects: Begin is recorded before the attempt's first acquire, and
// Commit/Abort after write-back and release — which is exactly the
// real-time contract the offline opacity checker relies on.
//
// Footprint-only accesses (Tx.ReadBlock/Tx.WriteBlock) and
// non-transactional probes (LoadNT/StoreNT) are not recorded: they carry
// no values, so they have no place in a value-based opacity history.
//
// A nil Recorder (the default, and the only configuration benchmarks and
// production runs should use) costs one predictable branch per operation
// and zero allocations.
type Recorder interface {
	RecordEvent(opacity.Event)
}

// Granularity selects the chunk size at which ownership is tracked
// (Section 1: "typically either individual words ... or whole cache lines").
type Granularity int

// Supported ownership granularities.
const (
	// BlockGranularity tracks ownership per 64-byte cache block.
	BlockGranularity Granularity = iota
	// WordGranularity tracks ownership per 8-byte word.
	WordGranularity
)

// chunkOf maps a byte address to its ownership chunk under g.
func (g Granularity) chunkOf(a addr.Addr) addr.Block {
	if g == WordGranularity {
		return addr.Block(uint64(a) >> addr.WordShift)
	}
	return addr.BlockOf(a)
}

// String names the granularity.
func (g Granularity) String() string {
	if g == WordGranularity {
		return "word"
	}
	return "block"
}

// Isolation selects how non-transactional accesses interact with
// transactions (Section 6).
type Isolation int

// Isolation levels.
const (
	// WeakIsolation: non-transactional accesses bypass the ownership
	// table entirely. Cheap, but unprotected against racing transactions.
	WeakIsolation Isolation = iota
	// StrongIsolation: non-transactional accesses perform ownership-table
	// lookups too, aborting none but waiting for no one: they acquire and
	// immediately release a one-block footprint, failing with a conflict
	// if a transaction holds the block. The paper notes this extra
	// concurrency makes tagless tables "even more untenable".
	StrongIsolation
)

// Config assembles an STM runtime.
type Config struct {
	// Table is the shared ownership table. Required.
	Table otable.Table
	// Memory is the word store transactions operate on. Required.
	Memory *Memory
	// Granularity of ownership tracking; defaults to BlockGranularity.
	Granularity Granularity
	// Isolation for non-transactional accesses; defaults to WeakIsolation.
	Isolation Isolation
	// InvisibleReaders enables the version-validated read-only fast path:
	// a transaction that has performed only reads validates each read
	// against the table's per-cell version stamps (snapshotting the
	// runtime's epoch clock at begin and revalidating the read set on
	// epoch advance and at commit) instead of ever acquiring ownership —
	// so read-only transactions are invisible to the ownership table and
	// to each other. The transaction falls back transparently to the
	// acquiring path on its first Write/WriteBlock (promoting its read set
	// to real read ownership) or after a bounded number of validation
	// aborts (FallbackAfter when positive, else an internal default).
	InvisibleReaders bool
	// MaxAttempts bounds the retries of one transaction (0 = unlimited).
	MaxAttempts int
	// BackoffBase is the initial backoff budget after an abort, measured
	// in scheduler yields; it doubles per consecutive abort up to
	// BackoffMax. Defaults 4 and 256. Set BackoffBase = -1 to disable
	// backoff entirely (immediate retry).
	//
	// Backoff yields the processor rather than spinning: on machines with
	// few cores, spinning preserves the exact interleaving that caused the
	// conflict and deterministic workloads can phase-lock into livelock;
	// a randomized number of yields reshuffles the schedule.
	BackoffBase int
	// BackoffMax caps the backoff yield budget.
	BackoffMax int
	// FuzzYield, when positive, makes each transactional operation yield
	// the processor with the given probability. It perturbs goroutine
	// scheduling so transactions genuinely interleave — a lightweight
	// schedule fuzzer for tests and demonstrations on machines with few
	// cores, where transactions otherwise run to completion within one
	// scheduler slice and conflicts never materialize. Zero disables it;
	// it must be < 1.
	FuzzYield float64
	// CM selects the contention-management policy by name: "backoff"
	// (default), "adaptive", "karma", "timestamp", or "switching". See the
	// CM interface. All policies draw their waiting bounds from
	// BackoffBase/BackoffMax (BackoffBase = -1 disables all waiting,
	// including the opponent-completion waits of the opponent-aware
	// policies).
	CM string
	// NewCM, when non-nil, overrides CM with a custom per-thread policy
	// constructor, called once from NewThread for each thread.
	NewCM func(th *Thread) CM
	// FallbackAfter, when positive, bounds how long a transaction stays
	// optimistic: after that many consecutive conflict aborts the thread
	// escalates to the runtime-wide serial token — a FIFO ticket that
	// stops new optimistic attempts, waits for in-flight ones to drain,
	// and then runs the starved transaction with no optimistic opponents
	// at all (the HTM-style global-lock fallback). Commits made while
	// holding the token are counted in Stats.FallbackCommits. Zero (the
	// default) disables escalation and its per-attempt gate check.
	FallbackAfter int
	// Recorder, when non-nil, receives the runtime's transactional history
	// for offline opacity checking (see the Recorder interface and
	// `tmbp check`). Nil disables recording at zero cost.
	Recorder Recorder
	// Seed makes thread-local randomized backoff reproducible.
	Seed uint64
}

// Runtime is a configured STM instance shared by all threads of a program.
//
// Runtime-wide statistics are kept per thread: every Thread owns a padded
// counter block it alone writes, and Stats aggregates them on demand. A
// single pair of global commit/abort atomics would be written on every
// transaction by every thread — a shared cache line bouncing between cores
// that caps scalability long before the ownership table does.
type Runtime struct {
	cfg    Config
	nextID atomic.Uint32
	// clock is the logical timestamp source of the greedy/timestamp CM
	// policies: each conflicted transaction draws one monotone stamp, and
	// lower stamp = older = senior. Drawn lazily (on a transaction's first
	// abort), so conflict-free execution never touches it.
	clock atomic.Uint64
	// epoch is the global commit clock of the invisible-reader fast path
	// (Config.InvisibleReaders): every writing commit draws one stamp with
	// Add(1) and publishes it to the version cells of the chunks it wrote,
	// and read-only transactions validate against it. Untouched — and
	// never advanced — when invisible readers are disabled or no writes
	// commit, so a read-only epoch comparison doubles as "nothing anywhere
	// has committed since my snapshot".
	epoch atomic.Uint64

	// Serial-fallback gate: a FIFO ticket lock over the whole runtime (see
	// fallback.go). fbTicket counts tickets issued, fbServing the ticket
	// currently admitted; the gate is free exactly when they are equal.
	fbTicket  atomic.Uint64
	fbServing atomic.Uint64

	mu sync.Mutex // serializes board republication (NewThread)
	// board is the sole thread registry: the epoch-published slice of
	// counter blocks indexed by TxID-1. NewThread copies, extends, and
	// republishes it under mu; readers — Stats aggregation, the CM
	// policies resolving a conflict target to its opponent's published
	// karma/stamp/progress, and the karma seniority scan — take one
	// atomic pointer load and never the mutex.
	board atomic.Pointer[[]*threadCounters]
}

// counterFor resolves a transaction ID to its thread's counter block via
// the published board, lock-free. It returns nil for IDs no registered
// thread owns (e.g. foreign table users).
func (rt *Runtime) counterFor(id otable.TxID) *threadCounters {
	b := rt.board.Load()
	if b == nil || id == 0 || uint64(id) > uint64(len(*b)) {
		return nil
	}
	return (*b)[id-1]
}

// threadCounters is one thread's slice of the runtime statistics. Each block
// is its own heap allocation padded to two cache lines, so no two threads'
// counters ever share a line and the increments on the commit path stay
// core-local. The block doubles as the thread's public contention-management
// face: karma is the published seniority account the karma policy ranks
// threads by, stamp is the transaction timestamp the greedy/timestamp
// policy orders opponents by, and commits+aborts serve as a progress
// counter an opponent-aware policy can watch to detect "the transaction
// that denied me has completed an attempt (and so released its slots)".
// Fields unused by the active policy stay zero.
type threadCounters struct {
	commits atomic.Uint64
	aborts  atomic.Uint64
	ntReads atomic.Uint64 // strong-isolation non-transactional probes
	ntConfl atomic.Uint64 // strong-isolation probes denied by a transaction
	karma   atomic.Uint64 // published karma account (karma CM policy only)
	stamp   atomic.Uint64 // published transaction timestamp (timestamp CM; 0 = unstamped)
	// started/finished bracket attempts (incremented at Begin and after
	// the releasing commit/rollback respectively), so started == finished
	// means "no attempt of this thread holds any table slot". The serial
	// fallback's drain watches the pair; they are maintained only when
	// Config.FallbackAfter enables the fallback.
	started  atomic.Uint64
	finished atomic.Uint64
	// fbCommits counts commits made while holding the serial token;
	// maxStreak publishes the longest run of consecutive conflict aborts
	// the thread has suffered (tail-behavior signal, see Stats).
	fbCommits atomic.Uint64
	maxStreak atomic.Uint64
	// Invisible-reader fast-path counters (Config.InvisibleReaders):
	// roCommits counts transactions that committed with zero table
	// acquires, roValAborts the invisible attempts killed by version
	// validation, roPromotes the invisible attempts that fell back to
	// acquiring on their first write, roExtends the successful
	// read-snapshot extensions.
	roCommits   atomic.Uint64
	roValAborts atomic.Uint64
	roPromotes  atomic.Uint64
	roExtends   atomic.Uint64
	id          otable.TxID // owning thread, for deterministic seniority tie-breaks
	_           [128 - 14*8 - 4]byte
}

// completions reports how many attempts (commits or aborts) the thread has
// finished — the progress signal opponent-aware CM waits watch, because
// every completed attempt has released all its ownership-table slots.
func (c *threadCounters) completions() uint64 {
	return c.commits.Load() + c.aborts.Load()
}

// New validates cfg and returns a Runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.Table == nil {
		return nil, errors.New("stm: Config.Table is required")
	}
	if cfg.Memory == nil {
		return nil, errors.New("stm: Config.Memory is required")
	}
	if cfg.MaxAttempts < 0 {
		return nil, fmt.Errorf("stm: MaxAttempts = %d must be >= 0", cfg.MaxAttempts)
	}
	if cfg.FuzzYield < 0 || cfg.FuzzYield >= 1 {
		return nil, fmt.Errorf("stm: FuzzYield = %v must be in [0, 1)", cfg.FuzzYield)
	}
	if cfg.FallbackAfter < 0 {
		return nil, fmt.Errorf("stm: FallbackAfter = %d must be >= 0", cfg.FallbackAfter)
	}
	if !validCM(cfg.CM) {
		return nil, fmt.Errorf("stm: unknown CM policy %q (want one of %v)", cfg.CM, CMKinds())
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 4
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 256
	}
	return &Runtime{cfg: cfg}, nil
}

// Table returns the runtime's ownership table (for statistics).
func (rt *Runtime) Table() otable.Table { return rt.cfg.Table }

// Memory returns the runtime's memory.
func (rt *Runtime) Memory() *Memory { return rt.cfg.Memory }

// Stats reports runtime-wide transaction counters.
type Stats struct {
	Commits uint64
	Aborts  uint64
	// NTProbes counts strong-isolation non-transactional accesses.
	NTProbes uint64
	// NTConflicts counts those denied by an active transaction.
	NTConflicts uint64
	// FallbackCommits counts commits made while holding the serial token
	// (Config.FallbackAfter): how often the runtime had to give up on
	// optimism to guarantee progress.
	FallbackCommits uint64
	// MaxConsecutiveAborts is the longest run of consecutive conflict
	// aborts any single thread suffered — the tail the mean abort rate
	// hides. A commit, user error, or terminal abort ends a run.
	MaxConsecutiveAborts uint64
	// ROCommits counts transactions that committed entirely on the
	// invisible-reader fast path — version-validated reads, zero
	// ownership-table acquires (Config.InvisibleReaders).
	ROCommits uint64
	// ROValidationAborts counts invisible read-only attempts aborted by
	// version validation: a concurrent commit (true, or aliased into the
	// same version cell) touched a chunk the attempt had read.
	ROValidationAborts uint64
	// ROPromotions counts invisible attempts that transparently promoted
	// their read set to real read ownership on their first write.
	ROPromotions uint64
	// ROExtensions counts successful read-snapshot extensions: a read
	// observed a stamp newer than the attempt's snapshot and the whole
	// read set revalidated at a newer epoch instead of aborting.
	ROExtensions uint64
}

// Stats returns a snapshot of the runtime counters, aggregated over all
// threads ever registered (read lock-free from the published board).
func (rt *Runtime) Stats() Stats {
	var s Stats
	b := rt.board.Load()
	if b == nil {
		return s
	}
	for _, c := range *b {
		if c == nil {
			continue // registration hole: a higher ID published first
		}
		s.Commits += c.commits.Load()
		s.Aborts += c.aborts.Load()
		s.NTProbes += c.ntReads.Load()
		s.NTConflicts += c.ntConfl.Load()
		s.FallbackCommits += c.fbCommits.Load()
		s.ROCommits += c.roCommits.Load()
		s.ROValidationAborts += c.roValAborts.Load()
		s.ROPromotions += c.roPromotes.Load()
		s.ROExtensions += c.roExtends.Load()
		if streak := c.maxStreak.Load(); streak > s.MaxConsecutiveAborts {
			s.MaxConsecutiveAborts = streak
		}
	}
	return s
}

// AbortRate returns aborts / (commits + aborts), 0 when idle.
func (s Stats) AbortRate() float64 {
	total := s.Commits + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// NewThread registers a new thread with the runtime. Each goroutine that
// executes transactions must use its own Thread; a Thread is not safe for
// concurrent use (it owns the private per-thread log of Section 2.1).
//
// Threads are meant to be long-lived — one per worker goroutine, not one
// per work item: each Thread's statistics block stays reachable from the
// Runtime for the runtime's lifetime so that Stats can aggregate it.
func (rt *Runtime) NewThread() *Thread {
	id := otable.TxID(rt.nextID.Add(1))
	ctr := &threadCounters{id: id}
	rt.mu.Lock()
	// Republish the board with the new block (copy-on-write: concurrent
	// lock-free readers keep the old epoch's slice). IDs are sequential,
	// but registration order is not — concurrent NewThreads may publish out
	// of ID order — so the board is sized to the largest ID seen and may
	// hold transient nil holes readers must skip.
	var old []*threadCounters
	if p := rt.board.Load(); p != nil {
		old = *p
	}
	n := len(old)
	if int(id) > n {
		n = int(id)
	}
	board := make([]*threadCounters, n)
	copy(board, old)
	board[id-1] = ctr
	rt.board.Store(&board)
	rt.mu.Unlock()
	roLimit := rt.cfg.FallbackAfter
	if roLimit <= 0 {
		roLimit = defaultROFallback
	}
	th := &Thread{
		rt:       rt,
		id:       id,
		ctr:      ctr,
		tab:      rt.cfg.Table,
		invis:    rt.cfg.InvisibleReaders,
		mem:      rt.cfg.Memory,
		wordGran: rt.cfg.Granularity == WordGranularity,
		slotID:   rt.cfg.Table.SlotsAreBlocks(),
		fb:       rt.cfg.FallbackAfter,
		roLimit:  roLimit,
		rec:      rt.cfg.Recorder,
		rng:      xrand.NewWithStream(rt.cfg.Seed, uint64(id)),
	}
	th.tx.th = th
	th.w = waiter{rng: th.rng, th: th}
	th.cm = newCM(rt, th)
	return th
}

// Thread is one transaction-executing thread: its identity, unified
// per-thread log, and backoff state. The descriptor (including the inline
// access-set storage) and the Tx handle are embedded and reused across
// attempts and transactions, so steady-state execution never allocates.
type Thread struct {
	rt  *Runtime
	id  otable.TxID
	ctr *threadCounters
	// tab/invis/mem/wordGran/slotID cache the config the hot path consults
	// on every access. Acquires record the granted record's handle in the
	// access-set entry and commit/abort release by handle — no table re-walk
	// on the serial commit path.
	tab otable.Table
	// invis is Config.InvisibleReaders, the master switch of the
	// invisible-reader fast path: when false it costs the hot paths one
	// branch and nothing else.
	invis    bool
	mem      *Memory
	wordGran bool // ownership tracked per word rather than per block
	slotID   bool // table slots are blocks: no cross-chunk slot aliasing
	fb       int  // Config.FallbackAfter (0 = serial fallback disabled)
	// rec is the runtime's history recorder, nil when disabled; cached
	// here so the hot path pays one nil check, not a config dereference.
	rec  Recorder
	desc txn.Desc
	rng  *xrand.Rand
	w    waiter // the cancellable yield loop all built-in waits go through
	cm   CM     // contention manager consulted between attempts
	// ctx is the context of the in-flight AtomicCtx call, nil during plain
	// Atomic; the waiter polls it so CM waits and fallback-gate waits end
	// promptly on cancellation. Only the owning goroutine touches it.
	ctx    context.Context
	active bool // a transaction is executing: nesting guard
	// Invisible-reader attempt state: invisible marks an attempt still on
	// the read-only fast path (cleared by the first write's promotion), rv
	// is its epoch snapshot, roAbort flags that the in-flight abort is a
	// version-validation kill, and roStreak counts such kills within the
	// current transaction — at roLimit the attempts give up on invisibility
	// and start acquiring.
	invisible bool
	roAbort   bool
	rv        uint64
	roStreak  int
	roLimit   int
	streak    int                 // consecutive conflict aborts of the running transaction
	lastFP    int                 // access-set size of the last finished attempt
	opp       otable.ConflictInfo // opponent of the conflict that killed the last attempt
	tx        Tx
}

// defaultROFallback bounds the validation aborts a transaction tolerates on
// the invisible-reader path before retrying with ordinary acquiring reads,
// when Config.FallbackAfter does not supply a tighter bound. Validation has
// no contention manager protecting it — an unlucky read-only transaction
// overlapping a steady stream of writers could otherwise starve.
const defaultROFallback = 8

// ID returns the thread's transaction identity.
func (th *Thread) ID() otable.TxID { return th.id }

// Attempts returns the attempt count of the last transaction.
func (th *Thread) Attempts() int { return th.desc.Attempts }

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

// fuzz yields the processor with the configured probability; see
// Config.FuzzYield.
func (th *Thread) fuzz() {
	if p := th.rt.cfg.FuzzYield; p > 0 && th.rng.Float64() < p {
		runtime.Gosched()
	}
}

// Atomic runs fn as a transaction, retrying on conflicts until it commits,
// fn returns an error, or the attempt budget is exhausted. How the thread
// waits between retries is the contention manager's decision (Config.CM).
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
// honored between attempts and inside every built-in contention-management
// wait (including the opponent-completion waits of the timestamp policy and
// the serial-fallback gate), so a blocked retry loop unwinds within a
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
		th.roStreak = 0
		th.active = false
		th.ctx = nil
	}()
	th.desc.StartTransaction()
	th.opp = otable.NoConflict
	for {
		if ctx != nil && ctx.Err() != nil {
			// Between attempts: the previous attempt (if any) has rolled
			// back and released its records. Give the CM its completion
			// callback so per-transaction state (stamps, karma) resets.
			if th.desc.Attempts > 0 {
				th.cm.Committed(th.lastFP)
			}
			return th.abortError(ctx.Err())
		}
		if th.fb > 0 {
			if !serial {
				if th.desc.Attempts >= th.fb {
					// FallbackAfter consecutive aborts: stop being
					// optimistic. Take the serial token and run with the
					// runtime drained.
					if err := th.rt.serialAcquire(th); err != nil {
						th.cm.Committed(th.lastFP)
						return th.abortError(err)
					}
					serial = true
				} else if err := th.rt.serialWait(th); err != nil {
					// Another thread holds (or is queued for) the token:
					// park this optimistic attempt until the gate is free.
					if th.desc.Attempts > 0 {
						th.cm.Committed(th.lastFP)
					}
					return th.abortError(err)
				}
			}
			// Counted on serial attempts too (their commit/rollback bumps
			// finished), keeping started == finished at quiescence — the
			// condition every future drain waits for.
			th.ctr.started.Add(1)
		}
		th.desc.Begin()
		if th.invis {
			// Serial attempts run with the runtime drained — acquiring is
			// uncontended and validation could only lose to the very writers
			// the fallback gate parked, so they skip the fast path.
			th.invisible = !serial && th.roStreak < th.roLimit
			th.rv = th.rt.epoch.Load()
		}
		if r := th.rec; r != nil {
			// Recorded before the attempt's first acquire: the Begin index
			// precedes every memory effect of the attempt.
			r.RecordEvent(opacity.Event{Kind: opacity.KindBegin,
				Thread: uint32(th.id), Attempt: int32(th.desc.Attempts)})
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
			th.roStreak++
			th.ctr.roValAborts.Add(1)
		}
		th.streak++
		if uint64(th.streak) > th.ctr.maxStreak.Load() {
			th.ctr.maxStreak.Store(uint64(th.streak))
		}
		if th.rt.cfg.MaxAttempts > 0 && th.desc.Attempts >= th.rt.cfg.MaxAttempts {
			th.desc.Status = txn.Aborted
			th.cm.Committed(th.lastFP)
			return th.abortError(ErrTooManyAttempts)
		}
		th.cm.Aborted(th.desc.Attempts, th.lastFP, th.opp)
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
// return early when it reports true, exactly as the built-in policies do —
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
				// completion callback (resetting karma/abort-rate state)
				// before propagating, as for any other completion.
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
	if th.invisible {
		th.validateReadSet()
	}
	th.commit()
	return nil, false
}

// commit makes the transaction's writes visible and releases ownership:
// write-back happens strictly before release, so any transaction that later
// acquires a written block observes the committed values. Both phases are
// single walks of the dense access array in first-access order.
func (th *Thread) commit() {
	th.desc.Status = txn.Committed
	set := &th.desc.Set
	words := th.mem.words
	for i, n := 0, set.Len(); i < n; i++ {
		e := set.At(i)
		for m := e.WMask; m != 0; m &= m - 1 {
			w := uint64(bits.TrailingZeros8(m))
			words[e.Word+w].Store(e.Vals[w])
		}
	}
	th.releaseAll(true)
	if th.fb > 0 {
		// Release precedes finished: when the serial drain observes
		// started == finished, every record this attempt held is free.
		th.ctr.finished.Add(1)
	}
	th.ctr.commits.Add(1)
	if th.invisible {
		// Still on the fast path at commit: the transaction read its whole
		// footprint without a single table acquire.
		th.ctr.roCommits.Add(1)
	}
	if r := th.rec; r != nil {
		// Recorded after write-back (and release): the Commit index
		// follows every memory effect of the attempt, so the recorded
		// [Begin, Commit] interval brackets the linearization point.
		r.RecordEvent(opacity.Event{Kind: opacity.KindCommit,
			Thread: uint32(th.id), Attempt: int32(th.desc.Attempts)})
	}
}

// rollback discards speculative state and releases ownership.
func (th *Thread) rollback() {
	th.desc.Status = txn.Aborted
	th.releaseAll(false)
	if th.fb > 0 {
		// Counted on every attempt-ending path — conflict, user error,
		// user panic — so the serial drain never waits on a dead attempt.
		th.ctr.finished.Add(1)
	}
	if r := th.rec; r != nil {
		// Every rollback — conflict, user error, or user panic — closes
		// the recorded attempt, so traces stay quiescent.
		r.RecordEvent(opacity.Event{Kind: opacity.KindAbort,
			Thread: uint32(th.id), Attempt: int32(th.desc.Attempts)})
	}
}

// releaseAll returns every held slot to the table in first-access order —
// the obligation-carrying entries of the access set — and retires the set.
// Each release is one generation-validated state CAS on the record the
// entry's handle names: the table is never re-walked on the commit or abort
// path.
//
// When invisible readers are enabled and the walk is a committing one, the
// first write release draws one stamp from the epoch clock and every write
// release publishes it to its slot's version cell (strictly before ownership
// drops, see otable.Table.ReleaseWriteV). The epoch is drawn lazily so
// read-only commits — which hold no write slots — never advance it, keeping
// the epoch==rv commit shortcut of concurrent invisible readers valid.
// Aborting walks publish nothing: memory was never mutated, so the old
// stamps still describe it.
func (th *Thread) releaseAll(committed bool) {
	set := &th.desc.Set
	n := set.Len()
	th.lastFP = n
	publish := committed && th.invis
	var stamp uint64
	for i := 0; i < n; i++ {
		e := set.At(i)
		if e.Perm&txn.SlotWrite != 0 {
			if publish {
				if stamp == 0 {
					stamp = th.rt.epoch.Add(1)
				}
				th.tab.ReleaseWriteV(th.id, e.Rel, otable.Handle(e.Hnd), stamp)
			} else {
				th.tab.ReleaseWriteH(th.id, e.Rel, otable.Handle(e.Hnd))
			}
		} else if e.Perm&txn.SlotRead != 0 {
			th.tab.ReleaseReadH(th.id, e.Rel, otable.Handle(e.Hnd))
		}
	}
	set.Reset()
}

// CM returns the thread's contention manager (for statistics and tests).
func (th *Thread) CM() CM { return th.cm }

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

// locate maps address a to its memory word, ownership chunk, and
// word-in-chunk offset under the runtime's granularity. At word granularity
// the chunk is the word itself and the offset is always zero.
func (th *Thread) locate(a addr.Addr) (word uint64, chunk addr.Block, widx uint64) {
	word = th.mem.index(a)
	if th.wordGran {
		return word, addr.Block(word), 0
	}
	return word, addr.Block(word >> blockWordShift), word & blockWordMask
}

// Read returns the word at address a as of the transaction's serialization
// point, acquiring read ownership of a's chunk. On conflict the attempt is
// rolled back and retried; user code simply never continues past the Read.
//
// The hit path is a single access-set probe: one entry answers membership,
// permission coverage, and read-own-writes at once.
func (tx *Tx) Read(a addr.Addr) uint64 {
	th := tx.th
	th.fuzz()
	word, chunk, widx := th.locate(a)
	var v uint64
	if e := th.desc.Set.Lookup(chunk); e != nil {
		// Read-own-writes: the inline redo value wins over memory. Any
		// existing entry holds at least read permission, so memory is
		// directly readable otherwise — except on the invisible path, where
		// nothing is held and a load must be version-validated (or served
		// from the entry's snapshot cache).
		if e.WMask&(1<<widx) != 0 {
			v = e.Vals[widx]
		} else if th.invisible {
			v = th.readInvisibleHit(e, word, widx)
		} else {
			v = th.mem.words[word].Load()
		}
	} else if th.invisible {
		v = th.readInvisibleMiss(word, chunk, widx)
	} else {
		th.acquireReadChunk(chunk, nil)
		v = th.mem.words[word].Load()
	}
	if r := th.rec; r != nil {
		r.RecordEvent(opacity.Event{Kind: opacity.KindRead,
			Thread: uint32(th.id), Attempt: int32(th.desc.Attempts), Word: word, Value: v})
	}
	return v
}

// Write records v as the speculative value of the word at a, acquiring
// write ownership of a's chunk. Memory is unmodified until commit.
func (tx *Tx) Write(a addr.Addr, v uint64) {
	th := tx.th
	th.fuzz()
	word, chunk, widx := th.locate(a)
	if th.invisible {
		th.promote()
	}
	e := th.desc.Set.Lookup(chunk)
	switch {
	case e == nil:
		e = th.acquireWriteChunk(chunk)
	case e.Perm&txn.PermWrite == 0:
		th.upgradeWriteChunk(e)
	}
	e.Word = word - widx
	e.Vals[widx] = v
	e.WMask |= 1 << widx
	if r := th.rec; r != nil {
		r.RecordEvent(opacity.Event{Kind: opacity.KindWrite,
			Thread: uint32(th.id), Attempt: int32(th.desc.Attempts), Word: word, Value: v})
	}
}

// ReadBlock acquires read ownership of an entire block footprint element
// without loading a word — used by trace replay where only footprints
// matter.
func (tx *Tx) ReadBlock(b addr.Block) {
	th := tx.th
	th.fuzz()
	if th.desc.Set.Lookup(b) != nil {
		return
	}
	if th.invisible {
		th.readBlockInvisible(b)
		return
	}
	th.acquireReadChunk(b, nil)
}

// WriteBlock acquires write ownership of a block without logging a word
// value; the footprint analogue of Write.
func (tx *Tx) WriteBlock(b addr.Block) {
	th := tx.th
	th.fuzz()
	if th.invisible {
		th.promote()
	}
	e := th.desc.Set.Lookup(b)
	switch {
	case e == nil:
		th.acquireWriteChunk(b)
	case e.Perm&txn.PermWrite == 0:
		th.upgradeWriteChunk(e)
	}
}

// acquireReadChunk acquires the read share backing chunk's slot, unless an
// earlier entry already covers the slot, and records the resulting release
// obligation in the chunk's access-set entry. The acquiring protocol passes
// e == nil — the chunk has no entry yet, and one is inserted once the acquire
// has succeeded, so a denied acquire aborts the attempt with no state
// change; promotion passes the entry the invisible protocol already made.
func (th *Thread) acquireReadChunk(chunk addr.Block, e *txn.Access) *txn.Access {
	set := &th.desc.Set
	slot := uint64(chunk)
	covered := false
	if !th.slotID {
		// Non-identity slots (tagless): an earlier entry for an aliasing
		// chunk may already hold covering permission on the slot — read or
		// write both cover a read, and no table traffic is needed.
		slot = th.tab.SlotOf(chunk)
		covered = set.FindSlotOwner(slot) >= 0
	}
	var out otable.Outcome
	var hnd otable.Handle
	if !covered {
		var ci otable.ConflictInfo
		out, ci, hnd = th.tab.AcquireReadH(th.id, chunk)
		if out.Conflict() {
			th.conflict(ci)
		}
	}
	if e == nil {
		e = set.Insert(chunk)
		e.Perm = txn.PermRead
	}
	e.Slot = slot
	if !covered && out == otable.Granted {
		// Granted created a release obligation; AlreadyHeld (covering
		// exclusive permission the table attributes to us) did not.
		e.Perm |= txn.SlotRead
		e.Hnd = uint64(hnd)
		if !th.slotID {
			set.RecordSlotOwner(e)
		}
	}
	return e
}

// acquireWriteChunk acquires write permission for a chunk with no
// access-set entry yet, inserts the entry, and returns it.
func (th *Thread) acquireWriteChunk(chunk addr.Block) *txn.Access {
	set := &th.desc.Set
	slot := uint64(chunk)
	if !th.slotID {
		slot = th.tab.SlotOf(chunk)
		if oi := set.FindSlotOwner(slot); oi >= 0 {
			if owner := set.At(oi); owner.Perm&txn.SlotWrite == 0 {
				// The slot is held with our read share: a private upgrade.
				// The owner entry's handle names the same slot, so it
				// survives the upgrade unchanged.
				out, ci, _ := th.tab.AcquireWriteH(th.id, chunk, 1, otable.Handle(owner.Hnd))
				if out.Conflict() {
					th.conflict(ci)
				}
				owner.Perm = owner.Perm&^txn.SlotRead | txn.SlotWrite
				owner.Rel = chunk
			}
			e := set.Insert(chunk)
			e.Slot = slot
			e.Perm = txn.PermWrite
			return e
		}
	}
	out, ci, hnd := th.tab.AcquireWriteH(th.id, chunk, 0, otable.NoHandle)
	if out.Conflict() {
		th.conflict(ci)
	}
	e := set.Insert(chunk)
	e.Slot = slot
	e.Perm = txn.PermWrite
	if out == otable.Granted {
		e.Perm |= txn.SlotWrite
		e.Hnd = uint64(hnd)
		if !th.slotID {
			set.RecordSlotOwner(e)
		}
	}
	return e
}

// upgradeWriteChunk promotes an existing read-only entry to write
// permission, upgrading the slot's ownership when this transaction holds
// its read share. On conflict (foreign readers or writer) the attempt
// aborts with the entry unchanged, so rollback still releases the held
// share.
func (th *Thread) upgradeWriteChunk(e *txn.Access) {
	if th.slotID {
		held := uint32(0)
		h := otable.NoHandle
		if e.Perm&txn.SlotRead != 0 {
			held = 1
			h = otable.Handle(e.Hnd)
		}
		out, ci, hnd := th.tab.AcquireWriteH(th.id, e.Chunk, held, h)
		if out.Conflict() {
			th.conflict(ci)
		}
		e.Perm = e.Perm&^txn.SlotRead | txn.PermWrite
		if out != otable.AlreadyHeld {
			e.Perm |= txn.SlotWrite
			e.Hnd = uint64(hnd)
		}
		return
	}
	set := &th.desc.Set
	if oi := set.FindSlotOwner(e.Slot); oi >= 0 {
		owner := set.At(oi)
		if owner.Perm&txn.SlotWrite == 0 {
			out, ci, _ := th.tab.AcquireWriteH(th.id, e.Chunk, 1, otable.Handle(owner.Hnd))
			if out.Conflict() {
				th.conflict(ci)
			}
			// The obligation stays with the first-touch owner entry so
			// release order matches first-acquire order; the representative
			// block follows the upgrade as in the footprint design.
			owner.Perm = owner.Perm&^txn.SlotRead | txn.SlotWrite
			owner.Rel = e.Chunk
		}
		e.Perm |= txn.PermWrite
		return
	}
	// No owner on record: covering permission was attributed to us by the
	// table without an obligation; acquire directly.
	out, ci, hnd := th.tab.AcquireWriteH(th.id, e.Chunk, 0, otable.NoHandle)
	if out.Conflict() {
		th.conflict(ci)
	}
	e.Perm |= txn.PermWrite
	if out == otable.Granted {
		e.Perm |= txn.SlotWrite
		e.Hnd = uint64(hnd)
		set.RecordSlotOwner(e)
	}
}

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

// FootprintBlocks returns the number of distinct chunks the transaction has
// accessed so far.
func (tx *Tx) FootprintBlocks() int { return tx.th.desc.FootprintBlocks() }

// LoadNT performs a non-transactional read of address a according to the
// runtime's isolation level. Under StrongIsolation it returns an error if a
// transaction holds the chunk with write permission.
//
// Non-transactional accesses touch exactly one table slot and release
// exactly what they acquired, never the thread's transactional holdings:
// LoadNT and StoreNT are safe to call from inside Atomic, where an active
// transaction's footprint must survive them. (An earlier design routed NT
// probes through the thread's shared footprint and released it wholesale —
// silently dropping a live transaction's ownership.)
func (th *Thread) LoadNT(a addr.Addr) (uint64, error) {
	// Validated before any acquire: a bad address panics holding nothing.
	w := &th.mem.words[th.mem.index(a)]
	if th.rt.cfg.Isolation == WeakIsolation {
		return w.Load(), nil
	}
	th.ctr.ntReads.Add(1)
	chunk := th.rt.cfg.Granularity.chunkOf(a)
	out, ci, hnd := th.tab.AcquireReadH(th.id, chunk)
	if out.Conflict() {
		th.ctr.ntConfl.Add(1)
		return 0, fmt.Errorf("stm: non-transactional read of %v denied: %v (%v)", a, out, ci)
	}
	v := w.Load()
	if out == otable.Granted {
		th.tab.ReleaseReadH(th.id, chunk, hnd)
	}
	// AlreadyHeld: this thread's own active transaction owns the slot
	// exclusively; the release obligation stays with the transaction.
	return v, nil
}

// StoreNT performs a non-transactional write; under StrongIsolation it is
// denied while any transaction holds the chunk — including a read share
// held by this thread's own active transaction, which a non-transactional
// write may not silently upgrade. If the calling thread's transaction holds
// the chunk exclusively the store is applied immediately and may later be
// overwritten by the transaction's own commit write-back. See LoadNT for
// the one-slot acquire/release discipline.
func (th *Thread) StoreNT(a addr.Addr, v uint64) error {
	// Validated before any acquire: a bad address panics holding nothing.
	w := &th.mem.words[th.mem.index(a)]
	if th.rt.cfg.Isolation == WeakIsolation {
		w.Store(v)
		return nil
	}
	th.ctr.ntReads.Add(1)
	chunk := th.rt.cfg.Granularity.chunkOf(a)
	out, ci, hnd := th.tab.AcquireWriteH(th.id, chunk, 0, otable.NoHandle)
	if out.Conflict() {
		th.ctr.ntConfl.Add(1)
		return fmt.Errorf("stm: non-transactional write of %v denied: %v (%v)", a, out, ci)
	}
	w.Store(v)
	if out == otable.Granted {
		if th.invis {
			th.tab.ReleaseWriteV(th.id, chunk, hnd, th.rt.epoch.Add(1))
		} else {
			th.tab.ReleaseWriteH(th.id, chunk, hnd)
		}
	} else if th.invis {
		// AlreadyHeld: the store went through under the calling thread's own
		// exclusive ownership and survives even if that transaction aborts —
		// the release obligation stays with the transaction, but memory has
		// already changed, so the version cell must advance immediately or a
		// concurrent invisible reader could validate a torn mix.
		th.tab.StampVersion(chunk, th.rt.epoch.Add(1))
	}
	return nil
}
