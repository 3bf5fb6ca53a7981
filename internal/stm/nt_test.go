package stm

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// TestNTInsideAtomicKeepsHoldings is the regression test for the
// strong-isolation hazard where LoadNT/StoreNT released the *shared* thread
// footprint: invoked from inside Atomic they silently dropped the active
// transaction's holdings. Non-transactional accesses must touch only the
// probed slot, leaving the transaction's ownership intact.
func TestNTInsideAtomicKeepsHoldings(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(64)
			rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			th := rt.NewThread()
			held := mem.WordAddr(0)     // block 0: written by the transaction
			ntRead := mem.WordAddr(8)   // block 1: NT-read mid-transaction
			ntWrite := mem.WordAddr(16) // block 2: NT-written mid-transaction
			probe := otable.NewFootprint(tab, 999)
			err = th.Atomic(func(tx *Tx) error {
				tx.Write(held, 5)
				// NT accesses to unrelated blocks succeed...
				if _, lerr := th.LoadNT(ntRead); lerr != nil {
					t.Errorf("LoadNT of free block inside Atomic: %v", lerr)
				}
				if serr := th.StoreNT(ntWrite, 7); serr != nil {
					t.Errorf("StoreNT of free block inside Atomic: %v", serr)
				}
				// ...and must NOT have dropped the transaction's write hold.
				if out := probe.Read(addr.BlockOf(held)); !out.Conflict() {
					t.Error("transaction's write hold was dropped by a mid-transaction NT access")
					probe.ReleaseAll()
				}
				// An NT read of the block the transaction itself write-holds
				// is satisfied without creating or dropping obligations; it
				// sees memory, not the redo log.
				if v, lerr := th.LoadNT(held); lerr != nil || v != 0 {
					t.Errorf("self-held LoadNT = %d, %v; want pre-commit 0, nil", v, lerr)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := mem.LoadDirect(held); got != 5 {
				t.Fatalf("committed value = %d, want 5", got)
			}
			if got := mem.LoadDirect(ntWrite); got != 7 {
				t.Fatalf("NT-stored value = %d, want 7", got)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("table occupancy after commit = %d (holdings leaked or double-released)", occ)
			}
		})
	}
}

// TestNTStoreDeniedOnOwnReadShare: a non-transactional write may not
// silently upgrade a read share held by the calling thread's own active
// transaction — it is denied like any other reader conflict.
func TestNTStoreDeniedOnOwnReadShare(t *testing.T) {
	tab := otable.NewTagged(hash.NewMask(64))
	mem := NewMemory(64)
	rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	a := mem.WordAddr(0)
	err = th.Atomic(func(tx *Tx) error {
		_ = tx.Read(a)
		if serr := th.StoreNT(a, 9); serr == nil {
			t.Error("StoreNT upgraded the transaction's own read share")
		}
		// A NT read alongside our own share is fine (share in, share out).
		if _, lerr := th.LoadNT(a); lerr != nil {
			t.Errorf("LoadNT alongside own read share: %v", lerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy = %d after commit", occ)
	}
	if mem.LoadDirect(a) != 0 {
		t.Fatal("denied StoreNT modified memory")
	}
}

// TestNTStoreDeniedOnOwnInvisibleRead: an invisible read holds nothing the
// table could deny a store on, so StoreNT must refuse, before any acquire,
// a chunk its own transaction has read. Stored and stamped, the write would
// kill the attempt in validation, and every retry would store it again.
func TestNTStoreDeniedOnOwnInvisibleRead(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 64, Config{Isolation: StrongIsolation})
			th := rt.NewThread()
			a := mem.WordAddr(0)
			err := th.Atomic(func(tx *Tx) error {
				_ = tx.Read(a)
				if serr := th.StoreNT(a, 9); serr == nil {
					t.Error("StoreNT wrote a chunk its own transaction read")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := th.Attempts(); got != 1 {
				t.Fatalf("attempts = %d, want 1", got)
			}
			if st := rt.Stats(); st.NTConflicts != 1 || st.ROCommits != 1 {
				t.Fatalf("NTConflicts/ROCommits = %d/%d, want 1/1", st.NTConflicts, st.ROCommits)
			}
			if ts := tab.Stats(); ts.WriteAcquires != 0 {
				t.Fatalf("denied StoreNT acquired: %+v", ts)
			}
			if got := mem.LoadDirect(a); got != 0 {
				t.Fatalf("word = %d after a denied StoreNT, want 0", got)
			}
		})
	}
}

// TestMixedOpsHammerAllKinds race-hammers the unified-log fast path with
// every operation shape at once — word Read/Write, block footprint ops, and
// strong-isolation NT accesses between and inside transactions — under every
// kind of sweepKinds. Invariant: transactional increments are exact, and the
// table drains.
func TestMixedOpsHammerAllKinds(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(128))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(1 << 10)
			rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 7, FuzzYield: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines = 8
				txnsEach   = 120
				txWords    = 512 // words [0, txWords): transactional counters
			)
			var ntOK, ntDenied atomic.Uint64
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
							// Footprint-only traffic in a disjoint block range.
							blk := addr.Block(1000 + (gid*13+i)%64)
							tx.ReadBlock(blk)
							if i%3 == 0 {
								tx.WriteBlock(blk)
							}
							return nil
						}); err != nil {
							errs <- err
							return
						}
						// NT traffic against the transactional region: success
						// or denial are both legal; corruption is not.
						if i%4 == 0 {
							if _, err := th.LoadNT(mem.WordAddr((gid + i) % txWords)); err != nil {
								ntDenied.Add(1)
							} else {
								ntOK.Add(1)
							}
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
			if st := rt.Stats(); st.NTProbes != ntOK.Load()+ntDenied.Load() {
				t.Fatalf("NT probe accounting: stats %d vs observed %d", st.NTProbes, ntOK.Load()+ntDenied.Load())
			}
		})
	}
}

// TestNTBadAddressPanicsHoldingNothing is the regression test for the
// strong-isolation leak where LoadNT/StoreNT acquired the chunk before
// Memory.index validated the address: an out-of-range or unaligned address
// panicked with the share still held, leaving the slot blocked forever.
func TestNTBadAddressPanicsHoldingNothing(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(64)
			rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			th := rt.NewThread()
			mustPanic := func(name string, fn func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
					if err := otable.AuditQuiesced(tab); err != nil {
						t.Errorf("after %s: %v", name, err)
					}
				}()
				fn()
			}
			beyond := addr.Addr(mem.Bytes())
			unaligned := mem.WordAddr(3) + 1
			mustPanic("LoadNT beyond memory", func() { th.LoadNT(beyond) })
			mustPanic("StoreNT beyond memory", func() { th.StoreNT(beyond, 1) })
			mustPanic("LoadNT unaligned", func() { th.LoadNT(unaligned) })
			mustPanic("StoreNT unaligned", func() { th.StoreNT(unaligned, 1) })
		})
	}
}
