// Package stm is a word-based software transactional memory built on the
// ownership tables of package otable. It is the runtime the paper's
// analysis applies to: transactions execute optimistically, acquire
// ownership of the cache blocks they write at encounter time through a
// central ownership table, buffer writes in a redo log, and roll back when
// a conflict is detected. A chunk — the unit the runtime tracks ownership,
// versions and footprints in — is one 64-byte cache block, the unit the
// paper's conflict model counts. Every access names a word of Memory, and an
// address past its end panics before the runtime sees its chunk.
//
// The metadata organization is pluggable: running the same program against
// a tagless table and a tagged table exposes exactly the false-conflict
// behavior the paper quantifies (tagless denies acquires on aliasing
// accesses the tagged table runs conflict-free). A false conflict costs a
// wait, not an abort, where the runtime can tell no data item caused it
// (invisible.go): a tagless denial waits for its holder and checks the
// chunk it pins by value.
//
// Concurrency control differs for writes and reads. A write acquires
// exclusive ownership of its chunk before the redo log records it, and
// holds it until commit or abort. A read acquires nothing: it is validated
// against the table's version stamps — one per tagless entry, one per
// tagged record — and the runtime's epoch clock (see invisible.go), and a
// writing commit draws its stamp and revalidates its reads with every write
// held, before it writes anything back. That
// makes every attempt opaque and read-only transactions invisible to the
// table and to each other. An attempt that begins with no write-back in
// flight anywhere (every drawn stamp counted finished) validates its first
// reads by the clock alone — attempts under the serial token included, since
// its drain leaves every stamp finished. Read ownership is taken nowhere:
// a sample that shows a writer is answered from the attempt's own access set
// — its own hold of a tagless entry, through an aliasing chunk, pins the
// chunk (pinOrWait); any other writer is waited out, at most a few yields,
// until no write-back is in flight, since a writer that has not drawn its
// stamp has written nothing. Contention management is self-abort with
// randomized exponential backoff between retries; a wait inside an attempt
// never consults it, and one that runs out aborts; Config.NewCM
// replaces it with a custom policy (see the CM interface in cm.go), and
// Config.FallbackAfter (8 unless set) bounds how long any transaction stays
// optimistic. That one bound covers every kind of abort: a reader that
// validation kills on every attempt escalates to the serial token like a
// writer that loses every acquire, and a serial attempt meets no optimistic
// opponent. Denied acquires report the denying
// opponent (otable.ConflictInfo), which the runtime hands to the policy's
// Aborted callback. Policies only reschedule retries; they never change
// what commits.
//
// Isolation is weak, the paper's assumption (Section 6): non-transactional
// code reads and writes Memory with LoadDirect and StoreDirect, plain atomic
// word accesses that consult no ownership table and that no transaction
// sees coming. Only a writing commit draws a stamp. The cost of strong
// isolation — a table lookup per non-transactional access, which makes
// tagless tables "even more untenable" — is measured by the lockstep
// simulator (`tmbp isolation`), not by this runtime.
//
// # The unified per-thread log
//
// The per-thread bookkeeping the paper calls "the private per-thread log"
// is a plain list of the chunks the attempt has touched, each once, with a
// per-thread bitmap (one bit per chunk of memory) that marks the chunks read
// and not written — the one read set — beside one open-addressed,
// insertion-ordered access set (txn.AccessSet) keyed by chunk that holds the
// chunks written. An entry carries the chunk's release handle and the redo
// values of the chunk's words inline, so a Write does one probe, and
// commit/abort walk the dense entry array once, writing back speculative
// values and releasing slots in first-write order. Who holds a slot is
// recorded in the table alone: a chunk's first write always acquires, and a
// tagless entry the attempt already holds through an aliasing chunk answers
// AlreadyHeld, which leaves the new entry with no handle and nothing to
// release.
// A read makes one probe, which finds only written chunks; any other read
// is a load and a clock check, and a chunk's first read appends it to the
// list and sets its bit, so a read-only attempt keeps an empty access set.
// Every validation walks the list once against the attempt's current epoch
// snapshot, and the list's length is the footprint. Small
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
	"sync"
	"sync/atomic"

	"tmbp/internal/addr"
	"tmbp/internal/otable"
	"tmbp/internal/txn"
	"tmbp/internal/xrand"
)

// Runtime is a configured STM instance shared by all threads of a program.
//
// Runtime-wide statistics are kept per thread: every Thread owns a padded
// counter block it alone writes, and Stats aggregates them on demand. A
// single pair of global commit/abort atomics would be written on every
// transaction by every thread — a shared cache line bouncing between cores
// that caps scalability long before the ownership table does.
type Runtime struct {
	// epoch is the global commit clock of the read protocol: every writing
	// commit draws one stamp with Add(1) — holding its writes, before it
	// writes anything back — and publishes it to the version cells of the
	// chunks it wrote; invisible attempts validate against it. A writing
	// attempt whose commit-time validation then fails has advanced the
	// clock and publishes nothing, which costs concurrent attempts a
	// revalidation, never a wrong answer. Read-only commits (and every
	// attempt that dies earlier) never advance it, so an unmoved clock
	// still means "no writing commit has serialized since my snapshot".
	epoch atomic.Uint64
	// done counts the stamps commitStamp drew that are finished, each once,
	// after the stamped releases (releaseAll): done == epoch means no
	// write-back is in flight, and an attempt that finds done == rv right
	// after loading rv begins drained (Thread.quiet). epoch and done lead the
	// struct to share one cache line, which the committer's draw has taken.
	done atomic.Uint64

	cfg    Config
	nextID atomic.Uint32

	// Serial-fallback gate: a FIFO ticket lock over the whole runtime (see
	// fallback.go). fbTicket counts tickets issued, fbServing the ticket
	// currently admitted; the gate is free exactly when they are equal.
	fbTicket  atomic.Uint64
	fbServing atomic.Uint64

	mu sync.Mutex // serializes board republication (NewThread)
	// board is the sole thread registry: the epoch-published slice of
	// counter blocks indexed by TxID-1. NewThread copies, extends, and
	// republishes it under mu; readers — Stats aggregation and the serial
	// fallback's drain — take one atomic pointer load and never the mutex.
	board atomic.Pointer[[]*threadCounters]
}

// threadCounters is one thread's slice of the runtime statistics. Each block
// is its own heap allocation padded to two cache lines, so no two threads'
// counters ever share a line and the increments on the commit path stay
// core-local.
type threadCounters struct {
	commits atomic.Uint64
	aborts  atomic.Uint64
	// started counts the attempts begun, rollbacks those that ended
	// without committing or were taken back at a busy gate (fallback.go):
	// started == commits + rollbacks means "no attempt holds a table slot".
	started   atomic.Uint64
	rollbacks atomic.Uint64
	// fbCommits counts commits made while holding the serial token;
	// maxStreak publishes the longest run of consecutive conflict aborts
	// the thread has suffered (tail-behavior signal, see Stats).
	fbCommits atomic.Uint64
	maxStreak atomic.Uint64
	// Read-protocol counters: roCommits counts read-only transactions that
	// committed (all with zero table acquires), roValAborts the attempts
	// killed by version validation, roPromotes the reads a writing attempt
	// served under its own tagless write hold after a sample showed it as a
	// writer, roExtends the successful read-snapshot extensions.
	roCommits   atomic.Uint64
	roValAborts atomic.Uint64
	roPromotes  atomic.Uint64
	roExtends   atomic.Uint64
	_           [128 - 10*8]byte
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
	if cfg.FallbackAfter < 0 {
		return nil, fmt.Errorf("stm: FallbackAfter = %d must be >= 0 (0 means %d)", cfg.FallbackAfter, defaultFallbackAfter)
	}
	if cfg.CM != "" && cfg.CM != "backoff" {
		return nil, fmt.Errorf("stm: CM policy %q does not exist (backoff is the only built-in; install others with Config.NewCM)", cfg.CM)
	}
	if cfg.BackoffBase < -1 {
		return nil, fmt.Errorf("stm: BackoffBase = %d must be >= -1 (-1 disables backoff)", cfg.BackoffBase)
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 4
	}
	if cfg.FallbackAfter == 0 {
		cfg.FallbackAfter = defaultFallbackAfter
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
	// FallbackCommits counts commits made while holding the serial token
	// (Config.FallbackAfter): how often the runtime had to give up on
	// optimism to guarantee progress.
	FallbackCommits uint64
	// MaxConsecutiveAborts is the longest run of consecutive conflict
	// aborts any single thread suffered — the tail the mean abort rate
	// hides. A commit, user error, or terminal abort ends a run. It is at
	// most Config.FallbackAfter unless a faulty table aborts a serial
	// attempt, which meets no optimistic opponent.
	MaxConsecutiveAborts uint64
	// ROCommits counts read-only transactions that committed — serial
	// ones included. Every read is version-validated, so each of them
	// committed with zero ownership-table acquires. Writing transactions
	// are not counted.
	ROCommits uint64
	// ROValidationAborts counts attempts, read-only or writing, aborted by
	// version validation: a concurrent commit touched a chunk the attempt
	// had read — truly, or through an aliasing chunk of the same tagless
	// entry, or (tagged) through a reaped record's stamp folded into the
	// bucket floor that a chunk with no record answers with.
	ROValidationAborts uint64
	// ROPromotions counts reads served under the attempt's own write hold,
	// with no table call: a writing attempt sampled a writer in a tagless
	// entry it holds through an aliasing chunk, and the hold pins the read
	// chunk (a sample showing any other writer is waited out instead).
	// A tagged sample answers for the chunk's own record, which an attempt
	// never holds where it samples, so on tagged it always reads 0. The
	// name is historical: no read is promoted to a share any more.
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
	ctr := &threadCounters{}
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
	chunks := (rt.cfg.Memory.Words() + chunkWords - 1) / chunkWords
	th := &Thread{
		rt:     rt,
		id:     id,
		ctr:    ctr,
		tab:    rt.cfg.Table,
		mem:    rt.cfg.Memory,
		slotID: rt.cfg.Table.SlotsAreBlocks(),
		rec:    rt.cfg.Recorder,
		rng:    xrand.NewWithStream(rt.cfg.Seed, uint64(id)),
		dbits:  make([]uint64, (chunks+63)/64),
	}
	th.tx.th = th
	th.w = waiter{rng: th.rng, th: th}
	th.cm = newCM(rt, th)
	return th
}

// Thread is one transaction-executing thread: its identity, unified
// per-thread log, and backoff state. The access set (with its inline
// storage) and the Tx handle are embedded and reused across attempts and
// transactions, so steady-state execution never allocates.
type Thread struct {
	rt  *Runtime
	id  otable.TxID
	ctr *threadCounters
	// tab/mem/slotID cache the config the hot path consults on
	// every access. Acquires record the granted record's handle in the
	// access-set entry and commit/abort release by handle — no table re-walk
	// on the serial commit path.
	tab    otable.Table
	mem    *Memory
	slotID bool // table slots are blocks: no cross-chunk slot aliasing
	// rec is the runtime's history recorder, nil when disabled; cached
	// here so the hot path pays one nil check, not a config dereference.
	rec Recorder
	// attempts counts the attempts of the running transaction, the active
	// one included; set holds the chunks the attempt wrote, with their redo
	// values and release handles. An attempt whose set is empty has not
	// written: it holds nothing, and its commit draws no stamp.
	attempts int
	set      txn.AccessSet
	rng      *xrand.Rand
	w        waiter // the cancellable yield loop all built-in waits go through
	cm       CM     // contention manager consulted between attempts
	// ctx is the context of the in-flight AtomicCtx call, nil during plain
	// Atomic; the waiter polls it so CM waits and fallback-gate waits end
	// promptly on cancellation. Only the owning goroutine touches it.
	ctx    context.Context
	active bool // a transaction is executing: nesting guard
	// Read-protocol attempt state: rv is the attempt's epoch snapshot,
	// quiet marks an attempt still reading drained (first reads take no
	// version sample), stamp is the commit stamp the attempt has drawn (0
	// before its draw), and roAbort flags that the in-flight abort is a
	// version-validation kill.
	quiet   bool
	roAbort bool
	rv      uint64
	stamp   uint64
	// The log (invisible.go): dlog lists every chunk the attempt has read or
	// written, once, so its length is the footprint. dbits has one bit per
	// chunk of memory, allocated by NewThread and cleared through dlog as the
	// attempt ends, set while the chunk is read and not written: the read
	// set.
	dlog  []addr.Block
	dbits []uint64
	// vlog lists the words a tagless attempt has read, with the values read,
	// emptied with dlog; a tagless pin compares them with memory
	// (checkPinned). A tagged attempt logs none.
	vlog []loggedWord
	// brChunk is the chunk the last sample bracket (or pin) read, brClock
	// the clock value it read there: a re-read of brChunk is accepted on a
	// clock still at brClock (accept). A memo from an earlier rv has
	// brClock <= rv, so it accepts nothing the rv rule does not.
	brChunk addr.Block
	brClock uint64
	streak  int                 // consecutive conflict aborts of the running transaction
	lastFP  int                 // footprint of the last finished attempt (FootprintBlocks)
	opp     otable.ConflictInfo // opponent of the conflict that killed the last attempt
	tx      Tx
}

// ID returns the thread's transaction identity.
func (th *Thread) ID() otable.TxID { return th.id }

// Attempts returns the attempt count of the last transaction.
func (th *Thread) Attempts() int { return th.attempts }
