package stm

import (
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/opacity"
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
			mem := NewMemory(65 * 8)
			rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			th := rt.NewThread()
			held := mem.WordAddr(0)     // block 0: written by the transaction
			ntRead := mem.WordAddr(8)   // block 1: NT-read mid-transaction
			ntWrite := mem.WordAddr(16) // block 2: NT-written mid-transaction
			alias := mem.WordAddr(64 * 8)
			if kind == "tagless" && tab.SlotOf(addr.BlockOf(alias)) != tab.SlotOf(addr.BlockOf(held)) {
				t.Fatal("blocks 64 and 0 do not share a tagless entry")
			}
			mem.StoreDirect(alias, 11)
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
				// On tagless, block 64 shares the held block's entry: its
				// sample shows the transaction's own hold, which holdsCell
				// finds by scanning the slot-holding entries, so the read
				// returns memory. On tagged, block 64 is simply free.
				if v, lerr := th.LoadNT(alias); lerr != nil || v != 11 {
					t.Errorf("LoadNT of a block aliasing the held one = %d, %v; want 11, nil", v, lerr)
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
// silently invalidate a read of the calling thread's own active transaction
// (a version-validated read: the runtime takes no read share), while a
// non-transactional read beside it is fine.
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
			t.Error("StoreNT wrote a chunk the transaction read")
		}
		// A NT read alongside our own read is fine.
		if _, lerr := th.LoadNT(a); lerr != nil {
			t.Errorf("LoadNT alongside own read: %v", lerr)
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

// TestLoadNTBracketSchedule steps a writer through strong-isolation LoadNTs
// (Sec. 6), which take no ownership and answer from two version samples
// around their one load. The writer's steps run on the reader's goroutine,
// from hooks on the table's SampleVersion, on one P. A writer that enters
// between the samples and writes the word back leaves the load holding a
// value of an unfinished commit: the second sample shows it and the read is
// denied. A writer parked mid-write-back is foreign wherever a sample meets
// it, and denies the read too. A writer that commits wholly between the
// load and the second sample left no writer to see, only a moved stamp: the
// read is taken again and returns the committed value, not the one loaded
// before the commit. A stamp that moves around every load is denied after
// roReadRetries retries, and the calling thread's own write hold returns
// memory.
func TestLoadNTBracketSchedule(t *testing.T) {
	onOneP(t)
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newSampledRuntime(t, kind, Config{Isolation: StrongIsolation})
			x := mem.WordAddr(16)
			w := newStepWriter(t, rt, addr.BlockOf(x))
			th := rt.NewThread()
			// load runs one LoadNT of x, disarms the hooks, and checks its
			// answer (denied, or want) and the samples it took.
			load := func(step string, denied bool, want uint64, samples int) {
				t.Helper()
				tab.samples = 0
				v, err := th.LoadNT(x)
				tab.before, tab.after = nil, nil
				switch {
				case denied && err == nil:
					t.Fatalf("%s: LoadNT = %d, want it denied", step, v)
				case !denied && (err != nil || v != want):
					t.Fatalf("%s: LoadNT = %d, %v; want %d", step, v, err, want)
				case tab.samples != samples:
					t.Fatalf("%s: LoadNT took %d samples, want %d", step, tab.samples, samples)
				}
			}

			tab.after = func(addr.Block) {
				tab.after = nil
				w.enter()
				w.store(x, 1)
			}
			load("writer entered between the samples", true, 0, 2)
			load("writer mid-write-back", true, 0, 1)
			w.leave()
			load("writer left", false, 1, 2)

			tab.before = func(_ addr.Block, n int) {
				if n == 1 { // the first read's second sample
					w.enter()
					w.store(x, 2)
					w.leave()
				}
			}
			load("writer committed between the load and the second sample", false, 2, 4)

			tab.before = func(_ addr.Block, n int) {
				if n%2 == 1 {
					w.enter()
					w.store(x, uint64(10+n))
					w.leave()
				}
			}
			load("a commit around every load", true, 0, 2*(roReadRetries+1))

			want := mem.LoadDirect(x)
			if err := th.Atomic(func(tx *Tx) error {
				tx.Write(x, 99)
				load("own write hold", false, want, 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if st := rt.Stats(); st.NTProbes != 6 || st.NTConflicts != 3 {
				t.Fatalf("NTProbes/NTConflicts = %d/%d, want 6/3", st.NTProbes, st.NTConflicts)
			}
			if ts := tab.Stats(); ts.ReadAcquires != 0 || ts.Upgrades != 0 {
				t.Fatalf("table traffic = %+v, want no read acquire and no upgrade", ts)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy = %d", occ)
			}
			assertDrained(t, rt)
		})
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

// TestNTStoreKillsSerialReader: an attempt under the serial token reads by
// version validation like any other and holds nothing, so a strong-isolation
// StoreNT to a chunk it has only read succeeds. The store stamps the chunk,
// the holder fails validation at commit, and its retry — still under the
// token — commits the stored value. Every thread runs on one goroutine, on
// one P. The runtime records no NT access, so the test records the store as
// what strong isolation makes it, a one-write transaction of the storing
// thread (which runs no other), and the history must be opaque.
func TestNTStoreKillsSerialReader(t *testing.T) {
	onOneP(t)
	for _, kind := range otable.Kinds() {
		t.Run(kind, func(t *testing.T) {
			log := opacity.NewLog()
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 64,
				Config{Isolation: StrongIsolation, FallbackAfter: 1, Recorder: log})
			holder, writer, nt := rt.NewThread(), rt.NewThread(), rt.NewThread()
			x := mem.WordAddr(0)
			ntEvent := func(kind opacity.Kind, v uint64) {
				log.RecordEvent(opacity.Event{Kind: kind, Thread: uint32(nt.ID()), Attempt: 1, Value: v})
			}
			attempt := 0
			var got uint64
			if err := holder.Atomic(func(tx *Tx) error {
				attempt++
				got = tx.Read(x)
				switch attempt {
				case 1:
					// A commit into the read set: the retry takes the token.
					if err := writer.Atomic(func(wtx *Tx) error {
						wtx.Write(x, 1)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				case 2:
					ntEvent(opacity.KindBegin, 0)
					if err := nt.StoreNT(x, 7); err != nil {
						t.Fatalf("StoreNT beside a serial reader: %v", err)
					}
					ntEvent(opacity.KindWrite, 7)
					ntEvent(opacity.KindCommit, 0)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempt != 3 || got != 7 {
				t.Fatalf("attempts/value = %d/%d, want 3/7", attempt, got)
			}
			st := rt.Stats()
			if st.FallbackCommits != 1 || st.ROValidationAborts != 2 || st.ROCommits != 1 || st.NTConflicts != 0 {
				t.Fatalf("FallbackCommits/ROValidationAborts/ROCommits/NTConflicts = %d/%d/%d/%d, want 1/2/1/0",
					st.FallbackCommits, st.ROValidationAborts, st.ROCommits, st.NTConflicts)
			}
			if ts := tab.Stats(); ts.ReadAcquires != 0 {
				t.Fatalf("%d read acquires: no attempt should take a read share", ts.ReadAcquires)
			}
			res, err := opacity.CheckTrace(log.Events())
			if err != nil {
				t.Fatalf("recorded trace malformed: %v", err)
			}
			if !res.Opaque || res.Committed != 3 {
				t.Fatalf("history = %s, want opaque with 3 commits", res)
			}
			assertDrained(t, rt)
		})
	}
}

// TestMixedOpsHammerAllKinds race-hammers the unified-log fast path with
// every operation shape at once — read-modify-writes, reads and blind
// writes, and strong-isolation NT accesses between and inside transactions — under every
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
