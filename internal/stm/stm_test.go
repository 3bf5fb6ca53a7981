package stm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// newRuntime builds a runtime over a fresh memory and table for tests.
func newRuntime(t *testing.T, kind string, entries uint64, words int) *Runtime {
	t.Helper()
	tab, err := otable.New(kind, hash.NewMask(entries))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Table: tab, Memory: NewMemory(words), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// sweepKinds is what the kind sweeps run over: the table organizations plus
// "sharded", the deprecated alias otable.New still accepts for a tagged
// table. The frozen benchmark builds hot-mix's table through that alias, so
// the runtime sweeps keep it as a subtest until the alias goes.
func sweepKinds() []string { return append(otable.Kinds(), "sharded") }

// layout is how a test places its data words in memory: the axis of the
// …/block and …/word subtests. A "block" test puts data word i at memory
// word i, eight to a chunk; a "word" test gives each data word a block of
// its own, data word i at memory word 8i, so data word i is chunk i and
// every word is its own chunk.
type layout string

var layouts = []layout{"block", "word"}

// spread is how many memory words l gives each data word.
func (l layout) spread() int {
	if l == "word" {
		return chunkWords
	}
	return 1
}

// at returns the address of data word i under l.
func (l layout) at(mem *Memory, i int) addr.Addr { return mem.WordAddr(i * l.spread()) }

// TestThreadCountersPadding pins threadCounters to two cache lines: its
// trailing pad is hand-computed from the field count, and a field added or
// removed without redoing that arithmetic would let two threads' blocks
// share a line.
func TestThreadCountersPadding(t *testing.T) {
	if got := unsafe.Sizeof(threadCounters{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(threadCounters{}) = %d, want 128", got)
	}
}

func TestConfigValidation(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	if _, err := New(Config{Memory: NewMemory(8)}); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := New(Config{Table: tab}); err == nil {
		t.Error("missing memory accepted")
	}
	if _, err := New(Config{Table: tab, Memory: NewMemory(8), MaxAttempts: -1}); err == nil {
		t.Error("negative MaxAttempts accepted")
	}
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"BackoffBase", Config{BackoffBase: -2}},
	} {
		c.cfg.Table, c.cfg.Memory = tab, NewMemory(8)
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("out-of-range %s: New = %v, want an error naming the field", c.field, err)
		}
	}
	for _, cfg := range []Config{{BackoffBase: -1}} {
		cfg.Table, cfg.Memory = tab, NewMemory(8)
		if _, err := New(cfg); err != nil {
			t.Errorf("New(%+v) = %v, want it accepted", cfg, err)
		}
	}
}

// TestTxAccessPastMemoryPanics: inside an attempt that has written a word,
// Read, Write and ReadWords of an address past the end of memory panic with
// the bad-address message before the runtime sees the address's chunk, so
// every chunk it tracks has its bit in the per-thread bitmap. The panic
// rolls the attempt back: the table is left empty and the thread's next
// transaction commits.
func TestTxAccessPastMemoryPanics(t *testing.T) {
	for _, kind := range otable.Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(64)
			rt, err := New(Config{Table: tab, Memory: mem, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			th := rt.NewThread()
			past := mem.WordAddr(mem.Words())
			for _, op := range []struct {
				name string
				fn   func(tx *Tx)
			}{
				{"Read", func(tx *Tx) { tx.Read(past) }},
				{"Write", func(tx *Tx) { tx.Write(past, 1) }},
				{"ReadWords", func(tx *Tx) { tx.ReadWords(mem.WordAddr(mem.Words()-2), make([]uint64, 4)) }},
			} {
				func() {
					defer func() {
						r := recover()
						err, ok := r.(error)
						if !ok || !strings.Contains(err.Error(), "beyond memory of 64 words") {
							t.Errorf("%s past memory panicked with %v, want the bad-address message", op.name, r)
						}
					}()
					_ = th.Atomic(func(tx *Tx) error {
						tx.Write(mem.WordAddr(0), 1)
						op.fn(tx)
						return nil
					})
				}()
				if err := otable.AuditQuiesced(tab); err != nil {
					t.Fatalf("after %s: %v", op.name, err)
				}
				if err := th.Atomic(func(tx *Tx) error { tx.Write(mem.WordAddr(0), tx.Read(mem.WordAddr(0))+1); return nil }); err != nil || th.Attempts() != 1 {
					t.Fatalf("after %s: next transaction = %v on attempt %d, want a commit on attempt 1", op.name, err, th.Attempts())
				}
			}
			if got := mem.LoadDirect(mem.WordAddr(0)); got != 3 {
				t.Fatalf("word 0 = %d, want the 3 increments of the committed transactions", got)
			}
			assertDrained(t, rt)
		})
	}
}

func TestMemoryBasics(t *testing.T) {
	m := NewMemory(4)
	if m.Words() != 4 || m.Bytes() != 32 {
		t.Fatalf("Words/Bytes = %d/%d", m.Words(), m.Bytes())
	}
	m.StoreDirect(m.WordAddr(2), 77)
	if got := m.LoadDirect(m.WordAddr(2)); got != 77 {
		t.Fatalf("LoadDirect = %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unaligned access did not panic")
			}
		}()
		m.LoadDirect(3)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-bounds access did not panic")
			}
		}()
		m.LoadDirect(m.WordAddr(4))
	}()
}

func TestCommitMakesWritesVisible(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 16)
	th := rt.NewThread()
	a := rt.Memory().WordAddr(3)
	err := th.Atomic(func(tx *Tx) error {
		tx.Write(a, 42)
		// Before commit, memory is unchanged (redo logging).
		if rt.Memory().LoadDirect(a) != 0 {
			t.Error("write visible before commit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Memory().LoadDirect(a); got != 42 {
		t.Fatalf("after commit: %d", got)
	}
	if s := rt.Stats(); s.Commits != 1 || s.Aborts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadOwnWrites(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 16)
	th := rt.NewThread()
	a := rt.Memory().WordAddr(1)
	err := th.Atomic(func(tx *Tx) error {
		tx.Write(a, 7)
		if got := tx.Read(a); got != 7 {
			t.Errorf("read-own-write = %d", got)
		}
		tx.Write(a, 8)
		if got := tx.Read(a); got != 8 {
			t.Errorf("second read-own-write = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserErrorAborts(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 16)
	th := rt.NewThread()
	a := rt.Memory().WordAddr(0)
	sentinel := errors.New("user abort")
	err := th.Atomic(func(tx *Tx) error {
		tx.Write(a, 99)
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := rt.Memory().LoadDirect(a); got != 0 {
		t.Fatalf("aborted write leaked: %d", got)
	}
	// Table must be fully released.
	if occ := rt.Table().Occupied(); occ != 0 {
		t.Fatalf("table occupancy after abort = %d", occ)
	}
}

func TestUserPanicReleasesOwnership(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 16)
	th := rt.NewThread()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("user panic swallowed")
			}
		}()
		_ = th.Atomic(func(tx *Tx) error {
			tx.Write(rt.Memory().WordAddr(0), 1)
			panic("user bug")
		})
	}()
	if occ := rt.Table().Occupied(); occ != 0 {
		t.Fatalf("occupancy after user panic = %d", occ)
	}
}

func TestMaxAttempts(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	mem := NewMemory(16)
	rt, err := New(Config{Table: tab, Memory: mem, MaxAttempts: 3, BackoffBase: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Park a foreign write on block 0 so every attempt conflicts.
	blocker := rt.NewThread()
	fpBlock := otable.NewFootprint(tab, 999)
	if out := fpBlock.Write(addr.BlockOf(0)); out.Conflict() {
		t.Fatal("setup conflict")
	}
	th := rt.NewThread()
	_ = blocker
	err = th.Atomic(func(tx *Tx) error {
		tx.Write(0, 1)
		return nil
	})
	if !errors.Is(err, ErrTooManyAttempts) {
		t.Fatalf("err = %v, want ErrTooManyAttempts", err)
	}
	if s := rt.Stats(); s.Aborts != 3 {
		t.Fatalf("aborts = %d, want 3", s.Aborts)
	}
	fpBlock.ReleaseAll()
	// After the blocker releases, the transaction succeeds.
	if err := th.Atomic(func(tx *Tx) error { tx.Write(0, 5); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := mem.LoadDirect(0); got != 5 {
		t.Fatalf("value = %d", got)
	}
}

// TestConcurrentCounter: classic lost-update check. Many goroutines
// increment one word transactionally; the final value must be exact.
func TestConcurrentCounter(t *testing.T) {
	for _, kind := range []string{"tagless", "tagged"} {
		t.Run(kind, func(t *testing.T) {
			rt := newRuntime(t, kind, 64, 8)
			const goroutines = 8
			const each = 200
			a := rt.Memory().WordAddr(0)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < each; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							tx.Write(a, tx.Read(a)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := rt.Memory().LoadDirect(a); got != goroutines*each {
				t.Fatalf("counter = %d, want %d", got, goroutines*each)
			}
			if occ := rt.Table().Occupied(); occ != 0 {
				t.Fatalf("occupancy = %d", occ)
			}
		})
	}
}

// TestBankConservation: concurrent random transfers preserve the total —
// the serializability smoke test, run against both organizations.
func TestBankConservation(t *testing.T) {
	for _, kind := range []string{"tagless", "tagged"} {
		t.Run(kind, func(t *testing.T) {
			const accounts = 16
			const initial = 1000
			rt := newRuntime(t, kind, 32, accounts)
			mem := rt.Memory()
			for i := 0; i < accounts; i++ {
				mem.StoreDirect(mem.WordAddr(i), initial)
			}
			const goroutines = 6
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < 300; i++ {
						from := (gid + i) % accounts
						to := (gid*7 + i*3 + 1) % accounts
						if from == to {
							continue
						}
						if err := th.Atomic(func(tx *Tx) error {
							fa, ta := mem.WordAddr(from), mem.WordAddr(to)
							fv := tx.Read(fa)
							if fv == 0 {
								return nil
							}
							tx.Write(fa, fv-1)
							tx.Write(ta, tx.Read(ta)+1)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			var total uint64
			for i := 0; i < accounts; i++ {
				total += mem.LoadDirect(mem.WordAddr(i))
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*initial)
			}
		})
	}
}

// TestFalseConflictsTaglessVsTagged is the paper's core claim end-to-end:
// threads touching disjoint data abort under a small tagless table but
// never under a tagged one.
func TestFalseConflictsTaglessVsTagged(t *testing.T) {
	run := func(kind string) Stats {
		rt := newRuntime(t, kind, 64, 4096)
		mem := rt.Memory()
		const goroutines = 4
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(gid int) {
				defer wg.Done()
				th := rt.NewThread()
				for i := 0; i < 150; i++ {
					if err := th.Atomic(func(tx *Tx) error {
						// Each thread works in its own 1 KiB stripe:
						// physically disjoint blocks that alias heavily in
						// a 64-entry table.
						for k := 0; k < 10; k++ {
							w := gid*1024/8 + (i*10+k)%128
							a := mem.WordAddr(w)
							tx.Write(a, tx.Read(a)+1)
						}
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return rt.Stats()
	}
	tagged := run("tagged")
	if tagged.Aborts != 0 {
		t.Errorf("tagged STM aborted %d times on disjoint data", tagged.Aborts)
	}
	tagless := run("tagless")
	if tagless.Aborts == 0 {
		t.Log("tagless STM saw no false conflicts this run (scheduling-dependent); acceptable but unusual")
	}
	if tagged.Commits != tagless.Commits {
		t.Errorf("commit counts differ: tagged %d vs tagless %d", tagged.Commits, tagless.Commits)
	}
}

// TestTaggedNoFalseConflicts is Section 5's guarantee under the read
// protocol the runtime runs: on disjoint data a tagged table aborts nothing
// — no version validation fails and no read pins — while a tagless table of
// the same size aborts on aliases. Each goroutine owns a stripe of blocks a
// table's width apart from the next (plus a small skew), so every stripe
// aliases the others bucket for bucket; a transaction reads α = 2 blocks
// per block it writes and yields between accesses so transactions overlap
// even on one CPU. The stripe cycles through four windows, so written blocks
// keep their records — at most three per bucket here, which no walk reaps —
// and the readers of the other blocks in a bucket meet its writers' commits
// at every validation.
//
// The tagless control is a nested pair, so it does not hang on goroutines
// that happen to overlap: thread A runs its stripe's first transaction, and
// inside A's body, holding A's writes, thread B runs the first transaction
// of the next stripe with one attempt allowed. The runtime is left undrained,
// so B's reads sample their cells: on tagless B's second read, of block
// N+8, samples the entry of block 8, which A has written, and B fails; on
// tagged every block has a cell of its own and both commit on the first try.
func TestTaggedNoFalseConflicts(t *testing.T) {
	const (
		writes  = 10
		alpha   = 2
		perTxn  = writes * (1 + alpha)
		windows = 4
		txns    = 40
		stripe  = perTxn * windows
	)
	// body is goroutine g's transaction i over a table of the given width.
	body := func(mem *Memory, g, entries, i uint64, between func()) func(tx *Tx) error {
		base := g*entries + 7*g // aliases the other stripes under NewMask(entries)
		return func(tx *Tx) error {
			for k := uint64(0); k < perTxn; k++ {
				a := mem.WordAddr(int(base+(i*perTxn+k)%stripe) * 8)
				if k%(alpha+1) == alpha {
					tx.Write(a, i)
				} else {
					tx.Read(a)
				}
				between()
			}
			return nil
		}
	}
	run := func(t *testing.T, kind string, goroutines int, entries uint64) Stats {
		rt := newRuntime(t, kind, entries, int(uint64(goroutines)*(entries+8)*8))
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g uint64) {
				defer wg.Done()
				th := rt.NewThread()
				for i := uint64(0); i < txns; i++ {
					if err := th.Atomic(body(rt.Memory(), g, entries, i, runtime.Gosched)); err != nil {
						t.Error(err)
						return
					}
				}
			}(uint64(g))
		}
		wg.Wait()
		return rt.Stats()
	}
	pair := func(t *testing.T, kind string, entries uint64) (errB error, attemptsA, attemptsB int) {
		tab, err := otable.New(kind, hash.NewMask(entries))
		if err != nil {
			t.Fatal(err)
		}
		mem := NewMemory(int(2 * (entries + 8) * 8))
		rt, err := New(Config{Table: tab, Memory: mem, Seed: 1, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		undrain(rt)
		thA, thB := rt.NewThread(), rt.NewThread()
		a := body(mem, 0, entries, 0, func() {})
		if err := thA.Atomic(func(tx *Tx) error {
			if err := a(tx); err != nil {
				return err
			}
			errB = thB.Atomic(body(mem, 1, entries, 0, func() {}))
			attemptsB = thB.Attempts()
			return nil
		}); err != nil {
			t.Fatalf("%s: A: %v", kind, err)
		}
		return errB, thA.Attempts(), attemptsB
	}
	for _, goroutines := range []int{4, 8} {
		for _, entries := range []uint64{256, 512, 4096} {
			t.Run(fmt.Sprintf("g%d/N%d", goroutines, entries), func(t *testing.T) {
				if st := run(t, "tagged", goroutines, entries); st.Aborts != 0 || st.ROValidationAborts != 0 || st.ROPromotions != 0 {
					t.Errorf("tagged on disjoint data: %+v, want no abort, no failed validation, no pin", st)
				}
				if errB, a, b := pair(t, "tagged", entries); errB != nil || a != 1 || b != 1 {
					t.Errorf("tagged nested pair: B err %v, A/B attempts %d/%d, want both committed on attempt 1", errB, a, b)
				}
				if errB, _, _ := pair(t, "tagless", entries); !errors.Is(errB, ErrTooManyAttempts) {
					t.Errorf("tagless nested pair on aliasing stripes: B err %v, want ErrTooManyAttempts", errB)
				}
			})
		}
	}
}

func TestBlockGranularityNeighborsConflict(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	mem := NewMemory(64)
	rt, err := New(Config{Table: tab, Memory: mem, MaxAttempts: 2, BackoffBase: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	thA, thB := rt.NewThread(), rt.NewThread()
	errA := thA.Atomic(func(txA *Tx) error {
		txA.Write(mem.WordAddr(0), 1)
		errB := thB.Atomic(func(txB *Tx) error {
			txB.Write(mem.WordAddr(1), 2) // same block at block granularity
			return nil
		})
		if !errors.Is(errB, ErrTooManyAttempts) {
			t.Errorf("same-block write did not conflict: %v", errB)
		}
		return nil
	})
	if errA != nil {
		t.Fatal(errA)
	}
}

// TestWeakIsolationBypassesTable: non-transactional access is
// Memory.LoadDirect/StoreDirect, which consult no table and draw no stamp.
func TestWeakIsolationBypassesTable(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 16)
	mem := rt.Memory()
	mem.StoreDirect(mem.WordAddr(0), 5)
	if v := mem.LoadDirect(mem.WordAddr(0)); v != 5 {
		t.Fatalf("LoadDirect = %d, want 5", v)
	}
	if st := rt.Table().Stats(); st != (otable.Stats{}) {
		t.Fatalf("weak isolation touched the table: %+v", st)
	}
	if e := rt.epoch.Load(); e != 0 {
		t.Fatalf("epoch = %d after direct accesses, want 0", e)
	}
}

func TestAbortRate(t *testing.T) {
	s := Stats{Commits: 75, Aborts: 25}
	if got := s.AbortRate(); got != 0.25 {
		t.Fatalf("AbortRate = %v", got)
	}
	if got := (Stats{}).AbortRate(); got != 0 {
		t.Fatalf("idle AbortRate = %v", got)
	}
}

func TestThreadIDsDistinct(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 8)
	seen := map[otable.TxID]bool{}
	for i := 0; i < 10; i++ {
		id := rt.NewThread().ID()
		if seen[id] {
			t.Fatalf("duplicate thread ID %d", id)
		}
		seen[id] = true
	}
}

func ExampleThread_Atomic() {
	tab := otable.NewTagged(hash.NewFibonacci(1024))
	mem := NewMemory(1024)
	rt, _ := New(Config{Table: tab, Memory: mem})
	th := rt.NewThread()
	_ = th.Atomic(func(tx *Tx) error {
		a, b := mem.WordAddr(0), mem.WordAddr(1)
		tx.Write(a, 100)
		tx.Write(b, tx.Read(a)+1)
		return nil
	})
	fmt.Println(mem.LoadDirect(mem.WordAddr(1)))
	// Output: 101
}

// TestFuzzYieldPreservesCorrectness: schedule fuzzing may only change
// interleavings, never outcomes — the concurrent counter stays exact. The
// fuzzing comes from the Recorder hook (fuzzSchedule), and the test fails if
// that recorder never yielded: a helper that stopped yielding would
// silently weaken every hammer that relies on it.
func TestFuzzYieldPreservesCorrectness(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	mem := NewMemory(64)
	cfg := Config{Table: tab, Memory: mem, Seed: 5}
	fuzz := fuzzSchedule(&cfg, 0.3)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 4, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.NewThread()
			for i := 0; i < each; i++ {
				if err := th.Atomic(func(tx *Tx) error {
					a := mem.WordAddr(0)
					tx.Write(a, tx.Read(a)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := mem.LoadDirect(mem.WordAddr(0)); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
	if fuzz.yields.Load() == 0 {
		t.Fatal("the fuzzing recorder never yielded")
	}
	if rt.Stats().Aborts == 0 {
		t.Log("no aborts despite fuzzing (possible but unusual); correctness still verified")
	}
}

// TestMixedOpsHammerAllKinds race-hammers the unified-log fast path with
// every transactional operation shape at once — read-modify-writes, reads
// and blind writes — under every kind of sweepKinds. Invariant:
// transactional increments are exact, and the table drains.
func TestMixedOpsHammerAllKinds(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(128))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(1 << 10)
			cfg := Config{Table: tab, Memory: mem, Seed: 7}
			fuzzSchedule(&cfg, 0.1)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines = 8
				txnsEach   = 120
				txWords    = 512 // words [0, txWords): transactional counters
			)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							for k := 0; k < 3; k++ {
								a := mem.WordAddr((gid*37 + i*11 + k*17) % txWords)
								tx.Write(a, tx.Read(a)+1)
							}
							// A read, and a blind write, in a disjoint block range.
							a := mem.WordAddr(txWords + 8*((gid*13+i)%64))
							tx.Read(a)
							if i%3 == 0 {
								tx.Write(a, uint64(i))
							}
							return nil
						}); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for i := 0; i < txWords; i++ {
				sum += mem.LoadDirect(mem.WordAddr(i))
			}
			if want := uint64(goroutines * txnsEach * 3); sum != want {
				t.Fatalf("lost updates: sum = %d, want %d", sum, want)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}
