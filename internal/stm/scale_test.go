package stm

import (
	"sync"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// TestAtomicHammerAllKinds drives every table organization × CM policy
// through the full transactional path — Atomic, redo logging, conflict
// abort, the policy's between-retry wait — with real goroutine contention
// on a deliberately small table. Run under -race this exercises the CAS
// entries (tagless), the lock-free record chains and release-by-handle
// (tagged), the per-thread runtime counters, and the karma seam policy's shared seniority board (seamcm_test.go); the
// exact-sum assertion proves serializability is identical across policies.
func TestAtomicHammerAllKinds(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, policy := range cmPolicies() {
			t.Run(kind+"/"+policy, func(t *testing.T) {
				t.Parallel()
				tab, err := otable.New(kind, hash.NewMask(128))
				if err != nil {
					t.Fatal(err)
				}
				mem := NewMemory(1 << 10)
				cfg := Config{Table: tab, Memory: mem, Seed: 1, FuzzYield: 0.2}
				withPolicy(&cfg, policy)
				attachRecorder(t, &cfg)
				rt, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				const (
					goroutines = 8
					txnsEach   = 150
					increments = 4
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
								for k := 0; k < increments; k++ {
									a := mem.WordAddr((gid*31 + i*7 + k*13) % mem.Words())
									tx.Write(a, tx.Read(a)+1)
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
				// Every committed increment must be present: the sum over
				// memory equals goroutines × txns × increments despite all
				// the aborts.
				var sum uint64
				for i := 0; i < mem.Words(); i++ {
					sum += mem.LoadDirect(mem.WordAddr(i))
				}
				if want := uint64(goroutines * txnsEach * increments); sum != want {
					t.Fatalf("lost updates: memory sum = %d, want %d", sum, want)
				}
				st := rt.Stats()
				if st.Commits != goroutines*txnsEach {
					t.Fatalf("commits = %d, want %d", st.Commits, goroutines*txnsEach)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("%s table occupancy after drain = %d", kind, occ)
				}
				assertDrained(t, rt)
			})
		}
	}
}

// TestAtomicHammerSerialFallback drives the serial-fallback escalation under
// real contention on every table organization: goroutines hammer
// read-modify-writes over a small pool of hot blocks, one block apart so
// each touch is its own chunk, with FallbackAfter low enough that some
// transaction escalates to the runtime-wide serial token. Under
// -opacity-record the histories (optimistic attempts interleaved with
// serial ones) replay through `tmbp check` in CI. The exact sum proves no
// increment is lost across the token hand-offs, and zero occupancy that
// every serial attempt released what it acquired.
func TestAtomicHammerSerialFallback(t *testing.T) {
	const (
		goroutines = 4
		txnsEach   = 100
		hotBlocks  = 64
		rmws       = 4
		blockWords = int(addr.BlockBytes / addr.WordBytes)
	)
	var fallbackCommits uint64
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := otable.New(kind, hash.NewMask(1024))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(hotBlocks * blockWords)
			cfg := Config{Table: tab, Memory: mem, Seed: 1, FuzzYield: 0.2, FallbackAfter: 2}
			attachRecorder(t, &cfg)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					r := xrand.NewWithStream(1, uint64(1000+gid))
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							for k := 0; k < rmws; k++ {
								a := mem.WordAddr(r.Intn(hotBlocks) * blockWords)
								tx.Write(a, tx.Read(a)+1)
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
			for i := 0; i < mem.Words(); i++ {
				sum += mem.LoadDirect(mem.WordAddr(i))
			}
			if want := uint64(goroutines * txnsEach * rmws); sum != want {
				t.Fatalf("lost updates: memory sum = %d, want %d", sum, want)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("%s table occupancy after drain = %d", kind, occ)
			}
			assertDrained(t, rt)
			fallbackCommits += rt.Stats().FallbackCommits
		})
	}
	if fallbackCommits == 0 {
		t.Fatal("no transaction escalated to the serial token on any table kind")
	}
}

// TestStatsAggregatesPerThreadCounters checks that the per-thread counter
// blocks sum correctly into the runtime-wide snapshot, including threads
// that never ran a transaction.
func TestStatsAggregatesPerThreadCounters(t *testing.T) {
	rt := newRuntime(t, "tagged", 64, 16)
	a := rt.Memory().WordAddr(0)
	threads := []*Thread{rt.NewThread(), rt.NewThread(), rt.NewThread()}
	_ = rt.NewThread() // idle thread: contributes zeroes
	perThread := []int{5, 3, 2}
	for i, th := range threads {
		for j := 0; j < perThread[i]; j++ {
			if err := th.Atomic(func(tx *Tx) error {
				tx.Write(a, tx.Read(a)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := rt.Stats()
	if st.Commits != 10 {
		t.Fatalf("Commits = %d, want 10 summed across threads", st.Commits)
	}
	if st.Aborts != 0 {
		t.Fatalf("Aborts = %d on uncontended run", st.Aborts)
	}
	if got := rt.Memory().LoadDirect(a); got != 10 {
		t.Fatalf("memory word = %d, want 10", got)
	}
}
