package stm

import (
	"errors"
	"fmt"
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

func TestWordGranularity(t *testing.T) {
	tab := otable.NewTagged(hash.NewMask(64))
	mem := NewMemory(64)
	rt, err := New(Config{Table: tab, Memory: mem, Granularity: WordGranularity, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Two words in the same cache block: block granularity would conflict,
	// word granularity must not.
	thA, thB := rt.NewThread(), rt.NewThread()
	errA := thA.Atomic(func(txA *Tx) error {
		txA.Write(mem.WordAddr(0), 1)
		return thB.Atomic(func(txB *Tx) error {
			txB.Write(mem.WordAddr(1), 2) // same 64B block, different word
			return nil
		})
	})
	if errA != nil {
		t.Fatalf("word-granularity neighbors conflicted: %v", errA)
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

func TestStrongIsolationDeniesRacingAccess(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	mem := NewMemory(16)
	rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	nt := rt.NewThread()
	err = th.Atomic(func(tx *Tx) error {
		tx.Write(mem.WordAddr(0), 9)
		if _, lerr := nt.LoadNT(mem.WordAddr(0)); lerr == nil {
			t.Error("strong isolation allowed a read of a write-held block")
		}
		if serr := nt.StoreNT(mem.WordAddr(0), 1); serr == nil {
			t.Error("strong isolation allowed a write of a write-held block")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// After commit the non-transactional access succeeds.
	v, lerr := nt.LoadNT(mem.WordAddr(0))
	if lerr != nil || v != 9 {
		t.Fatalf("post-commit LoadNT = %d, %v", v, lerr)
	}
	s := rt.Stats()
	if s.NTProbes == 0 || s.NTConflicts == 0 {
		t.Fatalf("NT stats not recorded: %+v", s)
	}
}

func TestWeakIsolationBypassesTable(t *testing.T) {
	rt := newRuntime(t, "tagless", 64, 16)
	nt := rt.NewThread()
	if err := nt.StoreNT(rt.Memory().WordAddr(0), 5); err != nil {
		t.Fatal(err)
	}
	v, err := nt.LoadNT(rt.Memory().WordAddr(0))
	if err != nil || v != 5 {
		t.Fatalf("LoadNT = %d, %v", v, err)
	}
	if s := rt.Stats(); s.NTProbes != 0 {
		t.Fatalf("weak isolation probed the table %d times", s.NTProbes)
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

func TestGranularityString(t *testing.T) {
	if BlockGranularity.String() != "block" || WordGranularity.String() != "word" {
		t.Fatal("granularity names wrong")
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

func TestFuzzYieldValidation(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	mem := NewMemory(8)
	for _, bad := range []float64{-0.1, 1.0, 2.0} {
		if _, err := New(Config{Table: tab, Memory: mem, FuzzYield: bad}); err == nil {
			t.Errorf("FuzzYield %v accepted", bad)
		}
	}
}

// TestFuzzYieldPreservesCorrectness: schedule fuzzing may only change
// interleavings, never outcomes — the concurrent counter stays exact.
func TestFuzzYieldPreservesCorrectness(t *testing.T) {
	tab := otable.NewTagless(hash.NewMask(64))
	mem := NewMemory(64)
	rt, err := New(Config{Table: tab, Memory: mem, FuzzYield: 0.3, Seed: 5})
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
	if rt.Stats().Aborts == 0 {
		t.Log("no aborts despite fuzzing (possible but unusual); correctness still verified")
	}
}
