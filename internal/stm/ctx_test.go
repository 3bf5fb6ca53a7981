package stm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// Tests for the bounded-time machinery: AtomicCtx cancellation at every
// stage of the retry loop, the typed *AbortError, the nested-Atomic guard,
// and the deterministic single-thread path through the serial-fallback
// escalation. The concurrent/adversarial variants live in internal/fault;
// these pin the exact contracts with schedules no scheduler can perturb.

// denyTable denies the first K acquires with a phantom writer conflict,
// then behaves like the wrapped table.
type denyTable struct {
	otable.Table
	remaining atomic.Int64
}

func newDenyTable(t *testing.T, k int64) *denyTable {
	t.Helper()
	tab, err := otable.New("tagged", hash.NewMask(64))
	if err != nil {
		t.Fatal(err)
	}
	d := &denyTable{Table: tab}
	d.remaining.Store(k)
	return d
}

const denyPhantom otable.TxID = 0xdead

func (d *denyTable) AcquireReadH(tx otable.TxID, b addr.Block) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	if d.remaining.Add(-1) >= 0 {
		return otable.ConflictWriter, otable.WriterConflict(denyPhantom), otable.NoHandle
	}
	return d.Table.AcquireReadH(tx, b)
}

func (d *denyTable) AcquireWriteH(tx otable.TxID, b addr.Block, heldReads uint32, h otable.Handle) (otable.Outcome, otable.ConflictInfo, otable.Handle) {
	if d.remaining.Add(-1) >= 0 {
		return otable.ConflictWriter, otable.WriterConflict(denyPhantom), otable.NoHandle
	}
	return d.Table.AcquireWriteH(tx, b, heldReads, h)
}

// TestAtomicCtxPreCancelled pins the entry contract: a context that is
// already done fails the call before any attempt begins — zero attempts,
// no conflict, memory untouched — and still reports through *AbortError.
func TestAtomicCtxPreCancelled(t *testing.T) {
	rt := newCMRuntime(t, "tagged", "backoff")
	mem := rt.Memory()
	th := rt.NewThread()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := th.AtomicCtx(ctx, func(tx *Tx) error {
		ran = true
		tx.Write(mem.WordAddr(0), 1)
		return nil
	})
	if ran {
		t.Fatal("transaction function ran under a pre-cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T, want *AbortError", err)
	}
	if ae.Attempts != 0 || ae.Conflict.Valid() {
		t.Fatalf("AbortError = {Attempts: %d, Conflict: %v}, want zero attempts, no conflict",
			ae.Attempts, ae.Conflict)
	}
	if mem.LoadDirect(mem.WordAddr(0)) != 0 {
		t.Fatal("memory modified under a pre-cancelled context")
	}
	if st := rt.Stats(); st.Commits != 0 || st.Aborts != 0 {
		t.Fatalf("stats = %+v, want no attempts counted", st)
	}
}

// TestAtomicCtxNilBehavesLikeAtomic pins that AtomicCtx(nil, fn) is plain
// Atomic: commits normally with no per-attempt context polling.
func TestAtomicCtxNilBehavesLikeAtomic(t *testing.T) {
	rt := newCMRuntime(t, "tagless", "backoff")
	mem := rt.Memory()
	th := rt.NewThread()
	var nilCtx context.Context // the documented Atomic-equivalent mode
	if err := th.AtomicCtx(nilCtx, func(tx *Tx) error {
		tx.Write(mem.WordAddr(2), 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := mem.LoadDirect(mem.WordAddr(2)); got != 7 {
		t.Fatalf("word 2 = %d, want 7", got)
	}
}

// TestAtomicCtxCancelDuringCMWait is the interruptible-wait contract,
// stepped deterministically: a holder parks mid-transaction owning the
// contested block, so the contender can never commit — it conflicts,
// waits under its policy, and retries, forever. Cancelling the context
// after the first conflict must pop the contender out of the retry loop
// with an *AbortError naming the holder, for every policy. The runtime's
// own waits are its only two waiter loops — the backoff between retries
// and the serial-fallback gate (TestFallbackCancelWhileQueued); the seam
// policies (seamcm_test.go) wait in loops of their own that poll
// Thread.Cancelled, timestamp's watch on the parked opponent's finished
// attempts included, which would otherwise spin its full budget per retry.
func TestAtomicCtxCancelDuringCMWait(t *testing.T) {
	for _, policy := range cmPolicies() {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			rt := newCMRuntime(t, "tagged", policy)
			mem := rt.Memory()
			held := make(chan struct{})    // holder owns the block
			release := make(chan struct{}) // lets the holder finish
			attempted := make(chan struct{})
			holderDone := make(chan error, 1)
			go func() {
				th := rt.NewThread() // thread ID 1
				holderDone <- th.Atomic(func(tx *Tx) error {
					tx.Write(mem.WordAddr(0), 1)
					close(held)
					<-release
					return nil
				})
			}()
			<-held
			th := rt.NewThread() // thread ID 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			contenderDone := make(chan error, 1)
			att := 0
			go func() {
				contenderDone <- th.AtomicCtx(ctx, func(tx *Tx) error {
					att++
					if att == 1 {
						close(attempted)
					}
					tx.Write(mem.WordAddr(0), 2) // collides with the holder
					return nil
				})
			}()
			<-attempted
			cancel()
			err := <-contenderDone
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("contender err = %v, want context.Canceled", err)
			}
			var ae *AbortError
			if !errors.As(err, &ae) {
				t.Fatalf("contender err %T, want *AbortError", err)
			}
			if ae.Attempts < 1 {
				t.Errorf("AbortError.Attempts = %d, want >= 1", ae.Attempts)
			}
			if w, ok := ae.Conflict.Writer(); !ok || w != 1 {
				t.Errorf("AbortError.Conflict = %v, want the holder (writer 1)", ae.Conflict)
			}
			close(release)
			if err := <-holderDone; err != nil {
				t.Fatalf("holder: %v", err)
			}
			// The holder's commit must be intact and the contender's retries
			// must have left nothing behind.
			if got := mem.LoadDirect(mem.WordAddr(0)); got != 1 {
				t.Fatalf("word 0 = %d, want the holder's 1", got)
			}
			if occ := rt.Table().Occupied(); occ != 0 {
				t.Fatalf("table occupancy after cancellation = %d, want 0", occ)
			}
		})
	}
}

// TestAtomicCtxDeadline is the same parked-holder shape driven by a
// deadline instead of an explicit cancel: the contender must give up and
// surface context.DeadlineExceeded on its own.
func TestAtomicCtxDeadline(t *testing.T) {
	tab, err := otable.New("tagged", hash.NewMask(256))
	if err != nil {
		t.Fatal(err)
	}
	// No MaxAttempts: the deadline must be the only way out.
	rt, err := New(Config{Table: tab, Memory: NewMemory(64), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mem := rt.Memory()
	held := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		th := rt.NewThread()
		holderDone <- th.Atomic(func(tx *Tx) error {
			tx.Write(mem.WordAddr(8), 1)
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	defer func() {
		close(release)
		if err := <-holderDone; err != nil {
			t.Errorf("holder: %v", err)
		}
	}()
	th := rt.NewThread()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err = th.AtomicCtx(ctx, func(tx *Tx) error {
		tx.Write(mem.WordAddr(8), 2)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestNestedAtomicRejected pins the nesting contract: the inner call fails
// with ErrNestedAtomic without disturbing the outer transaction, which
// commits normally — and the Thread is reusable afterwards. Both entry
// points are checked from inside both entry points.
func TestNestedAtomicRejected(t *testing.T) {
	rt := newCMRuntime(t, "tagged", "backoff")
	mem := rt.Memory()
	th := rt.NewThread()
	var innerAtomic, innerCtx error
	if err := th.Atomic(func(tx *Tx) error {
		tx.Write(mem.WordAddr(1), 11)
		innerAtomic = th.Atomic(func(*Tx) error { return nil })
		innerCtx = th.AtomicCtx(context.Background(), func(*Tx) error { return nil })
		tx.Write(mem.WordAddr(2), 22) // the outer transaction is still live
		return nil
	}); err != nil {
		t.Fatalf("outer Atomic: %v", err)
	}
	if !errors.Is(innerAtomic, ErrNestedAtomic) {
		t.Fatalf("nested Atomic = %v, want ErrNestedAtomic", innerAtomic)
	}
	if !errors.Is(innerCtx, ErrNestedAtomic) {
		t.Fatalf("nested AtomicCtx = %v, want ErrNestedAtomic", innerCtx)
	}
	if a, b := mem.LoadDirect(mem.WordAddr(1)), mem.LoadDirect(mem.WordAddr(2)); a != 11 || b != 22 {
		t.Fatalf("outer commit = (%d, %d), want (11, 22)", a, b)
	}
	// The guard must reset: a fresh top-level transaction works.
	if err := th.Atomic(func(tx *Tx) error {
		tx.Write(mem.WordAddr(3), 33)
		return nil
	}); err != nil {
		t.Fatalf("Atomic after nested rejection: %v", err)
	}
	if got := mem.LoadDirect(mem.WordAddr(3)); got != 33 {
		t.Fatalf("word 3 = %d, want 33", got)
	}
}

// TestAbortErrorTooManyAttempts pins the typed budget-exhaustion error:
// errors.Is still sees ErrTooManyAttempts (the pre-existing contract),
// errors.As yields the attempt count and the denying opponent, and the
// message carries both.
func TestAbortErrorTooManyAttempts(t *testing.T) {
	d := newDenyTable(t, 1<<40) // denies everything
	rt, err := New(Config{Table: d, Memory: NewMemory(64), Seed: 3,
		MaxAttempts: 3, BackoffBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	err = th.Atomic(func(tx *Tx) error {
		tx.Write(rt.Memory().WordAddr(0), 1)
		return nil
	})
	if !errors.Is(err, ErrTooManyAttempts) {
		t.Fatalf("err = %v, want ErrTooManyAttempts", err)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("err %T, want *AbortError", err)
	}
	if ae.Attempts != 3 {
		t.Errorf("AbortError.Attempts = %d, want 3", ae.Attempts)
	}
	if w, ok := ae.Conflict.Writer(); !ok || w != denyPhantom {
		t.Errorf("AbortError.Conflict = %v, want writer %#x", ae.Conflict, denyPhantom)
	}
	if msg := err.Error(); !strings.Contains(msg, "3 attempts") || !strings.Contains(msg, "conflict") {
		t.Errorf("error message %q lacks attempts/conflict detail", msg)
	}
}

// TestFallbackDeterministicEscalation walks the serial-fallback escalation
// on a single thread with an exactly scripted table: the first deny write
// acquires are denied, so attempts 1-deny abort, those after the first
// FallbackAfter already under the serial token, and attempt deny+1 commits
// while holding it. The Config{} case runs the default bound, 8: attempts
// 1-8 optimistic, 9 and 10 serial. Every counter the feature exposes is
// pinned.
func TestFallbackDeterministicEscalation(t *testing.T) {
	for _, c := range []struct {
		name          string
		fallbackAfter int
		deny          int
		bound         int // FallbackAfter as the runtime applies it
	}{
		{"after-2", 2, 5, 2},
		{"default", 0, 9, 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := newDenyTable(t, int64(c.deny))
			rt, err := New(Config{Table: d, Memory: NewMemory(64), Seed: 3,
				FallbackAfter: c.fallbackAfter, BackoffBase: -1})
			if err != nil {
				t.Fatal(err)
			}
			mem := rt.Memory()
			th := rt.NewThread()
			var serial []bool // per attempt: did it run under the token?
			if err := th.Atomic(func(tx *Tx) error {
				serial = append(serial, rt.serialBusy())
				tx.Write(mem.WordAddr(4), 9)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(serial) != c.deny+1 {
				t.Fatalf("committed on attempt %d, want %d", len(serial), c.deny+1)
			}
			for i, got := range serial {
				if want := i >= c.bound; got != want {
					t.Errorf("attempt %d ran serial = %v, want %v", i+1, got, want)
				}
			}
			st := rt.Stats()
			if st.Commits != 1 || st.Aborts != uint64(c.deny) {
				t.Fatalf("commits/aborts = %d/%d, want 1/%d", st.Commits, st.Aborts, c.deny)
			}
			if st.FallbackCommits != 1 {
				t.Errorf("FallbackCommits = %d, want 1 (commit happened under the token)", st.FallbackCommits)
			}
			if st.MaxConsecutiveAborts != uint64(c.deny) {
				t.Errorf("MaxConsecutiveAborts = %d, want %d", st.MaxConsecutiveAborts, c.deny)
			}
			if got := mem.LoadDirect(mem.WordAddr(4)); got != 9 {
				t.Fatalf("word 4 = %d, want 9", got)
			}
			// The token must have been released: a second transaction needs no
			// drain and commits optimistically.
			if err := th.Atomic(func(tx *Tx) error {
				tx.Write(mem.WordAddr(5), 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if st := rt.Stats(); st.FallbackCommits != 1 {
				t.Errorf("FallbackCommits after optimistic commit = %d, want still 1", st.FallbackCommits)
			}
		})
	}
}

// TestFallbackCancelWhileQueued pins the cancellation contract of the
// serial gate itself: a contender that escalates while the token is held
// must honor its context — taking and immediately passing on its
// positional ticket — rather than blocking until the holder finishes.
func TestFallbackCancelWhileQueued(t *testing.T) {
	rt, err := New(Config{Table: newDenyTable(t, 0).Table, Memory: NewMemory(64),
		Seed: 5, FallbackAfter: 1, BackoffBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	mem := rt.Memory()
	held := make(chan struct{})
	release := make(chan struct{})
	holderDone := make(chan error, 1)
	go func() {
		th := rt.NewThread()
		holderDone <- th.Atomic(func(tx *Tx) error {
			tx.Write(mem.WordAddr(0), 1)
			close(held)
			<-release
			return nil
		})
	}()
	<-held
	// The contender conflicts once (FallbackAfter=1), escalates, and then
	// parks: its drain waits on the holder's in-flight attempt. Cancel
	// must unwind it while the holder is still parked.
	th := rt.NewThread()
	ctx, cancel := context.WithCancel(context.Background())
	contenderDone := make(chan error, 1)
	go func() {
		contenderDone <- th.AtomicCtx(ctx, func(tx *Tx) error {
			tx.Write(mem.WordAddr(0), 2)
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the contender reach the drain
	cancel()
	err = <-contenderDone
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("queued contender err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	// The contender's abandoned ticket must not wedge the gate: a fresh
	// transaction (which checks the gate before every attempt) commits.
	th2 := rt.NewThread()
	if err := th2.Atomic(func(tx *Tx) error {
		tx.Write(mem.WordAddr(1), 3)
		return nil
	}); err != nil {
		t.Fatalf("transaction after abandoned ticket: %v", err)
	}
}

// TestFallbackGateCountsBeforeReading pins the order that makes the token
// exclusive: an optimistic attempt counts itself started before it reads
// the gate, and takes itself back (rollbacks) when it finds the gate busy.
// An attempt that read the gate first could find it free just before a
// ticket is issued and run beside the serial holder, unseen by its drain.
func TestFallbackGateCountsBeforeReading(t *testing.T) {
	rt, err := New(Config{Table: newDenyTable(t, 0).Table, Memory: NewMemory(64)})
	if err != nil {
		t.Fatal(err)
	}
	holder, th := rt.NewThread(), rt.NewThread()
	if err := rt.serialAcquire(holder); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- th.Atomic(func(tx *Tx) error {
			tx.Write(rt.Memory().WordAddr(0), 1)
			return nil
		})
	}()
	deadline := time.After(10 * time.Second)
	for th.ctr.rollbacks.Load() == 0 {
		select {
		case err := <-done:
			t.Fatalf("Atomic returned (%v) while the token was held", err)
		case <-deadline:
			t.Fatal("the attempt parked at the busy gate without being counted and taken back")
		default:
			runtime.Gosched()
		}
	}
	rt.serialRelease()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c := th.ctr
	if s, ends := c.started.Load(), c.commits.Load()+c.rollbacks.Load(); s != ends || c.commits.Load() != 1 {
		t.Fatalf("started/commits/rollbacks = %d/%d/%d: want one commit and every start ended",
			s, c.commits.Load(), c.rollbacks.Load())
	}
}

// TestFallbackDrainSkipsRegistrationHole pins the drain against the board's
// transient nil holes: a concurrent NewThread that has drawn a higher ID
// publishes first, leaving the lower slot nil until its owner registers.
func TestFallbackDrainSkipsRegistrationHole(t *testing.T) {
	rt, err := New(Config{Table: newDenyTable(t, 0).Table, Memory: NewMemory(64), FallbackAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	board := append(append([]*threadCounters(nil), *rt.board.Load()...), nil)
	rt.board.Store(&board)
	if err := rt.serialAcquire(th); err != nil {
		t.Fatal(err)
	}
	rt.serialRelease()
}
