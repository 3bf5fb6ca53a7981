package stm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// This file is the deterministic-schedule conflict suite for the contention
// managers: channel-stepped multi-thread scenarios whose first attempts are
// forced — by explicit rendezvous, not scheduler luck — into the classic
// contention shapes (symmetric livelock, reader-starves-writer, upgrade
// deadlock, convoy, chained conflict). Each scenario asserts the properties
// a CM owes the runtime: every transaction commits, within a bounded number
// of aborts, and the committed state is exactly what a serial execution
// produces — policies may only reschedule retries, never change outcomes.
// Every scenario runs on each table kind it applies to under every policy
// of cmPolicies — the built-in randomized backoff and the four seam
// policies of seamcm_test.go, opponent-aware timestamp and switching among
// them — so the conflict-target plumbing a Config.NewCM policy relies on is
// exercised under each waiting discipline.
//
// Stepping discipline: rendezvous channels are buffered and each side
// signals before waiting, so the step itself cannot deadlock; and all
// channel operations are guarded to the body's first execution, so the
// conflict-driven re-executions that follow run free under the policy
// being tested.

// cmAbortBound is the per-scenario abort budget. The scenarios force one
// or two deterministic conflicts and then rely on the policy to converge;
// a healthy policy resolves them in a handful of retries, so a bound this
// generous only trips on genuine livelock.
const cmAbortBound = 50

// cmMaxAttempts turns a livelocked test into a fast failure instead of a
// hang: far above cmAbortBound, so it never masks the real assertion.
const cmMaxAttempts = 1000

// onOneP runs a scenario test, including its parallel subtests, on a single
// P and restores GOMAXPROCS when they have all finished.
//
// Every policy waits in scheduler yields, and a yield is a wait only while
// the opponent shares the yielder's P: there each Gosched hands the P to
// the next runnable goroutine in turn, so a holder advances between a
// waiter's retries, and a kernel-level stall stops both alike. On two Ps
// that breaks down. Under yield-heavy load the kernel freezes one of the
// Ms for a ~4 ms tick several times a second, and whatever that M was
// carrying — the block holder, or the main goroutine about to release it —
// stands still while the other P spins through waits that cost ~100 ns per
// yield: a waiter burns past cmAbortBound, and under the short-leash
// policies all cmMaxAttempts (~3 ms of retries), against an opponent that
// is not running at all. That measures the kernel's time slice, not
// convergence. The scenarios force their interleaving by rendezvous and
// gain nothing from parallelism; the hammers at the end of this file and
// the race suite keep exercising the policies on every P.
func onOneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// newCMRuntime builds a small runtime for one scenario.
func newCMRuntime(t *testing.T, kind, policy string) *Runtime {
	t.Helper()
	tab, err := otable.New(kind, hash.NewMask(256))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Table:       tab,
		Memory:      NewMemory(64),
		Seed:        7,
		MaxAttempts: cmMaxAttempts,
	}
	withPolicy(&cfg, policy)
	attachRecorder(t, &cfg)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// checkScenario asserts the common postconditions: no errors, bounded
// aborts, a drained table, and the expected serial outcome per word.
func checkScenario(t *testing.T, rt *Runtime, errs []error, want map[int]uint64) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Aborts > cmAbortBound {
		t.Fatalf("aborts = %d, want <= %d (policy failed to converge)", st.Aborts, cmAbortBound)
	}
	for w, v := range want {
		if got := rt.Memory().LoadDirect(rt.Memory().WordAddr(w)); got != v {
			t.Fatalf("word %d = %d, want %d", w, got, v)
		}
	}
	if occ := rt.Table().Occupied(); occ != 0 {
		t.Fatalf("table occupancy after drain = %d", occ)
	}
}

// TestCMSymmetricLivelock forces the textbook deadly embrace: two threads
// acquire two blocks in opposite orders, with a rendezvous guaranteeing
// both hold their first block before either tries the second. Under 2PL
// with self-abort this cannot deadlock but can livelock — each retry can
// re-collide forever if the policy retries in lockstep. Every policy must
// break the symmetry (backoff/adaptive by randomized waits, karma by the
// seniority tie-break) and commit both threads within the abort budget.
func TestCMSymmetricLivelock(t *testing.T) {
	onOneP(t)
	for _, kind := range sweepKinds() {
		for _, policy := range cmPolicies() {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				t.Parallel()
				rt := newCMRuntime(t, kind, policy)
				mem := rt.Memory()
				// Words 0 and 8 sit in distinct 64-byte blocks.
				wordA, wordB := 0, 8
				c1 := make(chan struct{}, 1)
				c2 := make(chan struct{}, 1)
				step := func(mine, theirs chan struct{}) {
					mine <- struct{}{}
					<-theirs
				}
				body := func(first, second int, mine, theirs chan struct{}) func(*Thread) error {
					return func(th *Thread) error {
						att := 0
						return th.Atomic(func(tx *Tx) error {
							att++
							a1, a2 := mem.WordAddr(first), mem.WordAddr(second)
							tx.Write(a1, tx.Read(a1)+1)
							if att == 1 {
								// Both threads hold their first block here:
								// the second writes below must collide.
								step(mine, theirs)
							}
							tx.Write(a2, tx.Read(a2)+1)
							return nil
						})
					}
				}
				errs := make([]error, 2)
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); errs[0] = body(wordA, wordB, c1, c2)(rt.NewThread()) }()
				go func() { defer wg.Done(); errs[1] = body(wordB, wordA, c2, c1)(rt.NewThread()) }()
				wg.Wait()
				if rt.Stats().Aborts == 0 {
					t.Fatal("scenario failed to force a conflict: the rendezvous should make the second writes collide")
				}
				checkScenario(t, rt, errs, map[int]uint64{wordA: 2, wordB: 2})
			})
		}
	}
}

// TestCMReaderStarvesWriter pins a block under two read shares and lets a
// writer bang against it: every write acquire is denied (ConflictReaders)
// until the shares drain. A transactional read holds no share, so the
// shares are taken directly on the runtime's table, under the identities of
// two threads that run no transaction. They are released only after the
// writer has provably aborted at least once, so the scenario always
// exercises the policy's wait; the writer must then commit promptly.
func TestCMReaderStarvesWriter(t *testing.T) {
	onOneP(t)
	for _, policy := range cmPolicies() {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			rt := newCMRuntime(t, "tagged", policy)
			tab, a := rt.Table(), rt.Memory().WordAddr(0)
			chunk := addr.BlockOf(a)
			readers := []otable.TxID{rt.NewThread().ID(), rt.NewThread().ID()}
			for _, id := range readers {
				if out, _ := otable.AcquireRead(tab, id, chunk); out != otable.Granted {
					t.Fatalf("read share for tx %d: %v", id, out)
				}
			}
			errs := make([]error, 1)
			done := make(chan struct{})
			go func() {
				defer close(done)
				errs[0] = rt.NewThread().Atomic(func(tx *Tx) error {
					tx.Write(a, tx.Read(a)+1)
					return nil
				})
			}()
			// Hold the shares until the writer has hit the denial at least
			// once, then let it drain.
			for i := 0; rt.Stats().Aborts == 0; i++ {
				if i > 1_000_000 {
					t.Fatal("writer never conflicted with the held read shares")
				}
				runtime.Gosched()
			}
			for _, id := range readers {
				otable.ReleaseRead(tab, id, chunk)
			}
			<-done
			checkScenario(t, rt, errs, map[int]uint64{0: 1})
		})
	}
}

// TestCMUpgradeDeadlock makes two transactions read the same block — the
// rendezvous guarantees both have read it — and then write it. Under
// encounter-time 2PL with visible readers this is the deadlock-prone
// lock-upgrade pattern. Here the reads hold nothing, so whichever thread
// writes second is denied by the first's write or fails the stamp check
// behind its own acquire; it must retry and commit within the budget.
func TestCMUpgradeDeadlock(t *testing.T) {
	onOneP(t)
	for _, kind := range []string{"tagless", "tagged"} {
		for _, policy := range cmPolicies() {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				t.Parallel()
				rt := newCMRuntime(t, kind, policy)
				mem := rt.Memory()
				a := mem.WordAddr(0)
				c1 := make(chan struct{}, 1)
				c2 := make(chan struct{}, 1)
				body := func(mine, theirs chan struct{}) func(*Thread) error {
					return func(th *Thread) error {
						att := 0
						return th.Atomic(func(tx *Tx) error {
							att++
							v := tx.Read(a)
							if att == 1 {
								mine <- struct{}{}
								<-theirs // both have read a: the writes must collide
							}
							tx.Write(a, v+1)
							return nil
						})
					}
				}
				errs := make([]error, 2)
				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); errs[0] = body(c1, c2)(rt.NewThread()) }()
				go func() { defer wg.Done(); errs[1] = body(c2, c1)(rt.NewThread()) }()
				wg.Wait()
				if rt.Stats().Aborts == 0 {
					t.Fatal("scenario failed to force an upgrade conflict")
				}
				checkScenario(t, rt, errs, map[int]uint64{0: 2})
			})
		}
	}
}

// TestCMConvoy forces the convoy shape: one leader transaction holds a hot
// block while several followers pile up behind it, each provably denied at
// least once before the leader is allowed to commit. The policies differ
// in *how* the followers wait — backoff blindly, karma by seniority,
// timestamp by watching the leader's completion counter — but all must
// drain the convoy promptly once the leader releases, with every increment
// intact and aborts bounded.
func TestCMConvoy(t *testing.T) {
	onOneP(t)
	const followers = 3
	for _, kind := range sweepKinds() {
		for _, policy := range cmPolicies() {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				t.Parallel()
				rt := newCMRuntime(t, kind, policy)
				mem := rt.Memory()
				a := mem.WordAddr(0)
				held := make(chan struct{}, 1)
				release := make(chan struct{})
				errs := make([]error, followers+1)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { // leader: acquires first, holds until released
					defer wg.Done()
					th := rt.NewThread()
					att := 0
					errs[0] = th.Atomic(func(tx *Tx) error {
						att++
						tx.Write(a, tx.Read(a)+1)
						if att == 1 {
							held <- struct{}{}
							<-release
						}
						return nil
					})
				}()
				<-held // the leader owns the block: every follower must collide
				for i := 0; i < followers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						th := rt.NewThread()
						errs[1+i] = th.Atomic(func(tx *Tx) error {
							tx.Write(a, tx.Read(a)+1)
							return nil
						})
					}(i)
				}
				// Keep the leader parked until each follower has provably hit
				// the denial, then let the convoy drain.
				for i := 0; rt.Stats().Aborts < followers; i++ {
					if i > 1_000_000 {
						t.Fatal("followers never piled up behind the leader")
					}
					runtime.Gosched()
				}
				close(release)
				wg.Wait()
				checkScenario(t, rt, errs, map[int]uint64{0: followers + 1})
			})
		}
	}
}

// TestCMChainedConflict builds the transitive blocking chain A ← B ← C: A
// holds block X; B holds block Y and needs X; C needs Y. The rendezvous
// guarantees B is denied on X while it holds Y (so B's abort releases Y —
// the chain's only way forward), and C arrives at Y while B is parked on
// the chain head. Opponent-aware policies see the actual chain: C's denial
// names B, B's denial names A. Everyone must commit with aborts bounded
// once A releases.
func TestCMChainedConflict(t *testing.T) {
	onOneP(t)
	for _, policy := range cmPolicies() {
		t.Run("tagged/"+policy, func(t *testing.T) {
			t.Parallel()
			rt := newCMRuntime(t, "tagged", policy)
			mem := rt.Memory()
			// Words 0 and 8 sit in distinct 64-byte blocks: X and Y.
			aX, aY := mem.WordAddr(0), mem.WordAddr(8)
			aHolds := make(chan struct{}, 1)
			bHoldsY := make(chan struct{}, 1)
			cArrived := make(chan struct{}, 1)
			releaseA := make(chan struct{})
			errs := make([]error, 3)
			var wg sync.WaitGroup
			wg.Add(3)
			go func() { // A: holds X until released
				defer wg.Done()
				th := rt.NewThread()
				att := 0
				errs[0] = th.Atomic(func(tx *Tx) error {
					att++
					tx.Write(aX, tx.Read(aX)+1)
					if att == 1 {
						aHolds <- struct{}{}
						<-releaseA
					}
					return nil
				})
			}()
			go func() { // B: holds Y, then needs X
				defer wg.Done()
				<-aHolds
				th := rt.NewThread()
				att := 0
				errs[1] = th.Atomic(func(tx *Tx) error {
					att++
					tx.Write(aY, tx.Read(aY)+1)
					if att == 1 {
						bHoldsY <- struct{}{}
						<-cArrived
						// Give C's collision on Y a window while we still
						// hold it, so the B ← C edge materializes.
						for i := 0; i < 100; i++ {
							runtime.Gosched()
						}
					}
					tx.Write(aX, tx.Read(aX)+1) // denied while A holds X
					return nil
				})
			}()
			go func() { // C: needs Y, which B holds
				defer wg.Done()
				<-bHoldsY
				th := rt.NewThread()
				att := 0
				errs[2] = th.Atomic(func(tx *Tx) error {
					att++
					if att == 1 {
						cArrived <- struct{}{}
					}
					tx.Write(aY, tx.Read(aY)+1)
					return nil
				})
			}()
			// B re-collides with A's hold on every retry, so aborts keep
			// accumulating until A is released; two is proof the chain
			// head actually blocked.
			for i := 0; rt.Stats().Aborts < 2; i++ {
				if i > 1_000_000 {
					t.Fatal("the chain never blocked on A")
				}
				runtime.Gosched()
			}
			close(releaseA)
			wg.Wait()
			// X: incremented by A and B. Y: incremented by B and C.
			checkScenario(t, rt, errs, map[int]uint64{0: 2, 8: 2})
		})
	}
}

// TestCMOpponentDelivered pins the tentpole plumbing end to end: a denied
// acquire's ConflictInfo — extracted at the table's denying CAS — must
// arrive at the CM's Aborted callback naming the exact opponent. A custom
// recording policy observes every abort of a thread hammering a block the
// other thread verifiably holds with write ownership. The contender
// acquires the block (a write of its word 1) before it reads it: a read holds nothing
// a writer could deny, and one that straddled the holder's commit would die
// in validation, with no table opponent to name.
func TestCMOpponentDelivered(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(256))
			if err != nil {
				t.Fatal(err)
			}
			cms := map[*Thread]*countingCM{}
			rt, err := New(Config{
				Table:  tab,
				Memory: NewMemory(64),
				// Unlimited attempts: the recording policy never waits, so
				// the contender may retry far more often than a real policy
				// would while the holder is parked.
				NewCM: func(th *Thread) CM {
					c := &countingCM{}
					cms[th] = c
					return c
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			holder := rt.NewThread()
			contender := rt.NewThread()
			a := rt.Memory().WordAddr(0)
			held := make(chan struct{}, 1)
			release := make(chan struct{})
			errs := make([]error, 2)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				att := 0
				errs[0] = holder.Atomic(func(tx *Tx) error {
					att++
					tx.Write(a, tx.Read(a)+1)
					if att == 1 {
						held <- struct{}{}
						<-release
					}
					return nil
				})
			}()
			go func() {
				defer wg.Done()
				<-held
				errs[1] = contender.Atomic(func(tx *Tx) error {
					tx.Write(a+addr.WordBytes, 0)
					tx.Write(a, tx.Read(a)+1)
					return nil
				})
			}()
			for i := 0; rt.Stats().Aborts == 0; i++ {
				if i > 1_000_000 {
					t.Fatal("contender never conflicted with the held block")
				}
				runtime.Gosched()
			}
			close(release)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("thread %d: %v", i, err)
				}
			}
			c := cms[contender]
			if c.aborted == 0 || len(c.opponents) != c.aborted {
				t.Fatalf("recording CM saw %d aborts, %d opponents", c.aborted, len(c.opponents))
			}
			for i, opp := range c.opponents {
				if w, ok := opp.Writer(); !ok || w != holder.ID() {
					t.Fatalf("abort %d delivered opponent %v, want writer tx %d", i, opp, holder.ID())
				}
			}
		})
	}
}

// TestCMConfigValidation pins the deprecated Config.CM: the empty default
// and "backoff" build the one built-in policy, and every other name — the
// four deleted policies included — fails New with an error pointing to
// Config.NewCM, so a caller that asked for a deleted policy never silently
// runs backoff instead.
func TestCMConfigValidation(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	for _, policy := range []string{"", "backoff"} {
		rt, err := New(Config{Table: tab, Memory: NewMemory(8), CM: policy})
		if err != nil {
			t.Fatalf("CM %q rejected: %v", policy, err)
		}
		if got := rt.NewThread().CM().Kind(); got != "backoff" {
			t.Fatalf("CM %q built policy %q", policy, got)
		}
	}
	for _, policy := range []string{"adaptive", "karma", "timestamp", "switching", "bogus"} {
		_, err := New(Config{Table: tab, Memory: NewMemory(8), CM: policy})
		if err == nil {
			t.Fatalf("CM %q accepted", policy)
		}
		if !strings.Contains(err.Error(), "NewCM") {
			t.Fatalf("CM %q: error %q does not point to Config.NewCM", policy, err)
		}
	}
}

// countingCM is a custom policy recording its callbacks and the opponents
// they were handed.
type countingCM struct {
	aborted, committed int
	opponents          []otable.ConflictInfo
}

func (c *countingCM) Kind() string { return "counting" }
func (c *countingCM) Aborted(_, _ int, opp otable.ConflictInfo) {
	c.aborted++
	c.opponents = append(c.opponents, opp)
	runtime.Gosched() // let the opponent run; this policy only records
}
func (c *countingCM) Committed(_ int) { c.committed++ }

// TestCustomCMHook installs a user policy via Config.NewCM and checks it
// observes commits.
func TestCustomCMHook(t *testing.T) {
	tab := otable.NewTagged(hash.NewMask(64))
	cms := map[*Thread]*countingCM{}
	rt, err := New(Config{
		Table:  tab,
		Memory: NewMemory(8),
		NewCM: func(th *Thread) CM {
			c := &countingCM{}
			cms[th] = c
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	for i := 0; i < 3; i++ {
		if err := th.Atomic(func(tx *Tx) error {
			tx.Write(rt.Memory().WordAddr(0), uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	c := cms[th]
	if c == nil || c.Kind() != "counting" {
		t.Fatal("custom CM not installed")
	}
	if c.committed != 3 || c.aborted != 0 {
		t.Fatalf("counting CM saw committed=%d aborted=%d, want 3/0", c.committed, c.aborted)
	}
	// A user panic terminates the transaction and must still deliver the
	// completion callback (karma/abort-rate state resets on every exit).
	func() {
		defer func() { _ = recover() }()
		_ = th.Atomic(func(tx *Tx) error { panic("user bug") })
	}()
	if c.committed != 4 {
		t.Fatalf("counting CM saw committed=%d after user panic, want 4", c.committed)
	}
}

// TestCMPoliciesUnderHammer drives every policy through genuine goroutine
// contention on a tiny table (the all-kinds hammer shape) — run under
// -race this doubles as the data-race check on the karma seam policy's
// shared seniority board.
func TestCMPoliciesUnderHammer(t *testing.T) {
	for _, policy := range cmPolicies() {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New("tagged", hash.NewMask(128))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(1 << 10)
			cfg := Config{Table: tab, Memory: mem, Seed: 3}
			withPolicy(&cfg, policy)
			attachRecorder(t, &cfg)
			fuzzSchedule(&cfg, 0.2)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines = 8
				txnsEach   = 100
				increments = 4
			)
			var wg sync.WaitGroup
			errCh := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							for k := 0; k < increments; k++ {
								a := mem.WordAddr((gid*31 + i*7 + k*13) % mem.Words())
								tx.Write(a, tx.Read(a)+1)
							}
							return nil
						}); err != nil {
							errCh <- fmt.Errorf("%s g=%d: %w", policy, gid, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for i := 0; i < mem.Words(); i++ {
				sum += mem.LoadDirect(mem.WordAddr(i))
			}
			if want := uint64(goroutines * txnsEach * increments); sum != want {
				t.Fatalf("%s: lost updates: memory sum = %d, want %d", policy, sum, want)
			}
		})
	}
}

// TestCMCancelRacingCommitStillCommits is the commit-race half of the
// cancellation contract, stepped deterministically: the transaction
// function cancels its own context after its last write, so the context
// is guaranteed done before the commit point — yet the commit must win.
// The context is consulted only between attempts and inside waits, never
// after a successful attempt, so a transaction that reached its commit
// point reports success, not a spurious ctx.Err(), and the committed
// state is visible. Run across every table kind and policy: the guarantee
// belongs to the retry loop, not to any one policy's waiting discipline.
func TestCMCancelRacingCommitStillCommits(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, policy := range cmPolicies() {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				t.Parallel()
				rt := newCMRuntime(t, kind, policy)
				mem := rt.Memory()
				th := rt.NewThread()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if err := th.AtomicCtx(ctx, func(tx *Tx) error {
					tx.Write(mem.WordAddr(0), 41)
					tx.Write(mem.WordAddr(8), 42)
					cancel() // done strictly before the commit point
					return nil
				}); err != nil {
					t.Fatalf("AtomicCtx = %v, want success for an attempt that reached commit", err)
				}
				if a, b := mem.LoadDirect(mem.WordAddr(0)), mem.LoadDirect(mem.WordAddr(8)); a != 41 || b != 42 {
					t.Fatalf("committed state = (%d, %d), want (41, 42)", a, b)
				}
				if st := rt.Stats(); st.Commits != 1 {
					t.Fatalf("commits = %d, want 1", st.Commits)
				}
				// A subsequent AtomicCtx on the now-cancelled context must
				// fail cleanly without running the function.
				err := th.AtomicCtx(ctx, func(tx *Tx) error {
					t.Error("function ran under a cancelled context")
					return nil
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("follow-up AtomicCtx = %v, want context.Canceled", err)
				}
			})
		}
	}
}
