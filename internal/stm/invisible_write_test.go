package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/xrand"
)

// Tests of invisible attempts that write: the reads stay invisible and are
// validated at commit, the written chunk alone is acquired. The first group
// pins the table traffic and the two aliasing traps single-threaded; the
// second proves serializability where the protocol could lose it — write
// skew, lost updates, strong-isolation stores — under real interleaving; the
// last covers first reads of chunks the attempt already holds, which owe the
// snapshot-cover check although nothing about them needs validating later.

// atLeastTwoPs raises GOMAXPROCS to 2 for tests whose failure mode needs two
// commits genuinely overlapping.
func atLeastTwoPs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// TestInvisibleWriterOwnHoldSameCell runs a writing invisible attempt on a
// two-entry table, where every even block shares one version cell: the
// cell's writer count then includes the attempt's own hold, which no sample
// can tell from a foreign writer. Each such sample must be settled by
// pinning that one entry — at a first read, at the read of a second word
// once the clock has moved, and at commit validation — with no abort, and
// every pin released. The runtime starts undrained, so first reads sample.
func TestInvisibleWriterOwnHoldSameCell(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 2, 256, Config{})
			undrain(rt)
			// Blocks 0, 2 and 4 share cell 0; block 1 lives in cell 1.
			a, b, b2, c, d := mem.WordAddr(0), mem.WordAddr(16), mem.WordAddr(17), mem.WordAddr(32), mem.WordAddr(8)
			mem.StoreDirect(b, 5)
			mem.StoreDirect(b2, 6)
			mem.StoreDirect(c, 7)
			th, other := rt.NewThread(), rt.NewThread()
			pins := func() uint64 { return rt.Stats().ROPromotions }

			// Write A first: the first reads of B and C sample our own hold.
			if err := th.Atomic(func(tx *Tx) error {
				tx.Write(a, 1)
				if vb, vc := tx.Read(b), tx.Read(c); vb != 5 || vc != 7 {
					t.Fatalf("reads beside an own hold = %d/%d, want 5/7", vb, vc)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := pins(); got != 2 {
				t.Fatalf("write A, read B, read C pinned %d entries, want 2", got)
			}

			// Read B invisibly, write A, then read a second word of B. On a
			// still clock the read never visits the cell, so the own hold goes
			// unnoticed; after a foreign commit (other cell) has moved the
			// clock the read validates against the cell and meets it.
			for _, moved := range []bool{false, true} {
				if err := th.Atomic(func(tx *Tx) error {
					vb := tx.Read(b)
					tx.Write(a, vb+1)
					if moved {
						if err := other.Atomic(func(otx *Tx) error { otx.Write(d, 8); return nil }); err != nil {
							t.Fatal(err)
						}
					}
					if vb2 := tx.Read(b2); vb2 != 6 {
						t.Fatalf("second word of B = %d, want 6", vb2)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				want := uint64(2)
				if moved {
					want = 3
				}
				if got := pins(); got != want {
					t.Fatalf("read B, write A, read B' (clock moved: %v) pinned %d entries in all, want %d", moved, got, want)
				}
			}

			// Read B, let a foreign commit (other cell) move the clock so the
			// rv+1 shortcut is off, write A: commit validation meets our hold.
			if err := th.Atomic(func(tx *Tx) error {
				vb := tx.Read(b)
				if err := other.Atomic(func(otx *Tx) error { otx.Write(d, 9); return nil }); err != nil {
					t.Fatal(err)
				}
				tx.Write(a, vb+10)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := pins(); got != 4 {
				t.Fatalf("commit validation beside an own hold pinned %d entries in all, want 4", got)
			}

			if got := mem.LoadDirect(a); got != 15 {
				t.Fatalf("A = %d, want 15", got)
			}
			if st := rt.Stats(); st.Aborts != 0 || st.Commits != 6 {
				t.Fatalf("stats = %+v, want 6 commits (two of them the foreign ones) and no abort", st)
			}
			// A pin is a table read acquire only where blocks have records of
			// their own; on tagless the attempt's hold already covers the slot.
			wantReads := uint64(4)
			if kind == "tagless" {
				wantReads = 0
			}
			if ts := tab.Stats(); ts.ReadAcquires != wantReads {
				t.Fatalf("read acquires = %d, want %d (%+v)", ts.ReadAcquires, wantReads, ts)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after commit = %d", occ)
			}
		})
	}
}

// TestInvisibleWriterTaglessAliasTrap: an invisibly inserted entry carries the
// identity slot key, not its tagless slot. Read A invisibly, write B that
// aliases A's table entry, then write A: the upgrade must find B's entry as
// the slot owner — no second table call, one release.
func TestInvisibleWriterTaglessAliasTrap(t *testing.T) {
	rt, tab, mem := newInvisibleRuntime(t, "tagless", 64, 1024, Config{})
	a, b := mem.WordAddr(65*8), mem.WordAddr(8) // blocks 65 and 1: one entry
	if sa, sb := tab.SlotOf(addr.BlockOf(a)), tab.SlotOf(addr.BlockOf(b)); sa != sb {
		t.Fatalf("blocks do not alias: slots %d and %d", sa, sb)
	}
	mem.StoreDirect(a, 3)
	th := rt.NewThread()
	if err := th.Atomic(func(tx *Tx) error {
		v := tx.Read(a)
		tx.Write(b, v+1)
		tx.Write(a, v+2)
		if ga, gb := tx.Read(a), tx.Read(b); ga != 5 || gb != 4 {
			t.Fatalf("read-own-writes = %d/%d, want 5/4", ga, gb)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ga, gb := mem.LoadDirect(a), mem.LoadDirect(b); ga != 5 || gb != 4 {
		t.Fatalf("A/B = %d/%d, want 5/4", ga, gb)
	}
	if ts := tab.Stats(); ts.WriteAcquires != 1 || ts.ReadAcquires != 0 || ts.Releases != 1 {
		t.Fatalf("table traffic = %+v, want one write acquire and one release", ts)
	}
	if st := rt.Stats(); st.Aborts != 0 || st.ROPromotions != 0 {
		t.Fatalf("stats = %+v, want no abort and no pin", st)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy after commit = %d", occ)
	}
}

// TestInvisibleBlockParity: the footprint-only ReadBlock/WriteBlock follow
// the same protocol as Read/Write — the same transaction expressed either
// way leaves identical table and runtime counters.
func TestInvisibleBlockParity(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			run := func(blocks bool) (otable.Stats, Stats) {
				rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
				th := rt.NewThread()
				if err := th.Atomic(func(tx *Tx) error {
					for i := 0; i < 4; i++ {
						if blocks {
							tx.ReadBlock(addr.BlockOf(mem.WordAddr(8 * i)))
						} else {
							tx.Read(mem.WordAddr(8 * i))
						}
					}
					for _, i := range []int{2, 9} { // one read chunk, one fresh
						if blocks {
							tx.WriteBlock(addr.BlockOf(mem.WordAddr(8 * i)))
						} else {
							tx.Write(mem.WordAddr(8*i), 1)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("occupancy after commit = %d", occ)
				}
				return tab.Stats(), rt.Stats()
			}
			wt, ws := run(false)
			bt, bs := run(true)
			if wt != bt || ws != bs {
				t.Fatalf("word and block forms differ:\n words  %+v %+v\n blocks %+v %+v", wt, ws, bt, bs)
			}
			if wt.ReadAcquires != 0 || wt.WriteAcquires != 2 || wt.Releases != 2 {
				t.Fatalf("table traffic = %+v, want two write acquires and two releases", wt)
			}
		})
	}
}

// TestWriteSkewSchedule steps two invisible attempts through the crossing
// schedule — T1 reads y, T2 reads x, T1 writes x, T2 writes y — and lets
// both into commit off one spin barrier. Each guards its write by the
// other's variable (`if y == 0 { x = 1 }` / `if x == 0 { y = 1 }`), so a
// serial order admits exactly one of the two writes: x+y must be 1 after
// every round. Skipping commit validation fails the first round. Drawing
// the commit stamp after write-back fails once both commits load the clock
// before either advances it; each side also writes a run of private words
// so that write-back, the window in question, lasts longer than the two
// sides' skew in leaving the barrier.
func TestWriteSkewSchedule(t *testing.T) {
	atLeastTwoPs(t)
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			// One table entry per block: the private runs alias nothing.
			rt, tab, mem := newInvisibleRuntime(t, kind, 512, 4096, Config{})
			x, y := mem.WordAddr(0), mem.WordAddr(8)
			t1, t2 := rt.NewThread(), rt.NewThread()
			const (
				rounds = 300
				pad    = 128 // private blocks per side
			)
			for r := 0; r < rounds; r++ {
				mem.StoreDirect(x, 0)
				mem.StoreDirect(y, 0)
				step := [4]chan struct{}{}
				for i := range step {
					step[i] = make(chan struct{})
				}
				var atCommit atomic.Int32
				// guarded is one side: read `other`, and if it is 0 write 1
				// to `mine` (and the private run starting at block own). Its
				// first attempt waits for waitRead before the read and for
				// waitWrite before the write, and signals each done.
				guarded := func(th *Thread, other, mine addr.Addr, own int, waitRead, doneRead, waitWrite, doneWrite chan struct{}) error {
					first := true
					return th.Atomic(func(tx *Tx) error {
						stepped := first
						first = false
						if stepped && waitRead != nil {
							<-waitRead
						}
						v := tx.Read(other)
						if stepped {
							close(doneRead)
							<-waitWrite
						}
						if v == 0 {
							tx.Write(mine, 1)
							for b := own; b < own+pad; b++ {
								tx.Write(mem.WordAddr(8*b), uint64(r))
							}
						}
						if stepped {
							close(doneWrite)
							atCommit.Add(1)
							for spins := 0; atCommit.Load() < 2; spins++ {
								if spins > 1000 {
									runtime.Gosched() // one CPU: let the other side run
								}
							}
						}
						return nil
					})
				}
				var wg sync.WaitGroup
				errs := make(chan error, 2)
				wg.Add(2)
				go func() {
					defer wg.Done()
					errs <- guarded(t1, y, x, 2, nil, step[0], step[1], step[2])
				}()
				go func() {
					defer wg.Done()
					errs <- guarded(t2, x, y, 2+pad, step[0], step[1], step[2], step[3])
				}()
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				if gx, gy := mem.LoadDirect(x), mem.LoadDirect(y); gx+gy != 1 {
					t.Fatalf("round %d: x/y = %d/%d — both crossing writers committed (write skew)", r, gx, gy)
				}
			}
			if st := rt.Stats(); st.Commits != 2*rounds || st.Aborts < rounds {
				t.Fatalf("stats = %+v, want %d commits and at least one abort per round", st, 2*rounds)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			// Every round's loser drew its stamp and then failed validation:
			// its rollback must have counted the stamp finished.
			assertDrained(t, rt)
		})
	}
}

// TestWriteSkewHammer is the free-running form: two guarded writers and a
// checker asserting x+y <= 1 from inside transactions run for as long as a
// resetter keeps re-arming the pair, with a yield between each guarded
// writer's read and its write.
func TestWriteSkewHammer(t *testing.T) {
	atLeastTwoPs(t)
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
			x, y := mem.WordAddr(0), mem.WordAddr(64)
			const resets = 2000
			var skew atomic.Uint64
			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, 4)
			// worker runs fn as a transaction until the resetter is done
			// (the resetter itself: `times` times).
			worker := func(times int, fn func(tx *Tx) error) {
				defer wg.Done()
				th := rt.NewThread()
				for i := 0; times == 0 && !stop.Load() || i < times; i++ {
					if err := th.Atomic(fn); err != nil {
						errs <- err
						return
					}
					runtime.Gosched()
				}
				if times > 0 {
					stop.Store(true)
				}
			}
			guarded := func(other, mine addr.Addr) func(tx *Tx) error {
				return func(tx *Tx) error {
					if tx.Read(other) == 0 {
						runtime.Gosched()
						tx.Write(mine, 1)
					}
					return nil
				}
			}
			wg.Add(4)
			go worker(0, guarded(y, x))
			go worker(0, guarded(x, y))
			go worker(0, func(tx *Tx) error { // checker
				if tx.Read(x)+tx.Read(y) > 1 {
					skew.Add(1)
				}
				return nil
			})
			go worker(resets, func(tx *Tx) error {
				tx.Write(x, 0)
				tx.Write(y, 0)
				return nil
			})
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if n := skew.Load(); n != 0 {
				t.Fatalf("checker saw x+y > 1 in %d transactions: write skew committed", n)
			}
			if gx, gy := mem.LoadDirect(x), mem.LoadDirect(y); gx+gy > 1 {
				t.Fatalf("final x/y = %d/%d", gx, gy)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
		})
	}
}

// TestLostUpdateHammerInvisible: N threads read one counter word invisibly,
// yield, and write it back incremented. The write acquire's stamp check (or
// the acquire itself) must kill every attempt whose read went stale: the
// final value equals the number of commits.
func TestLostUpdateHammerInvisible(t *testing.T) {
	atLeastTwoPs(t)
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
			ctr := mem.WordAddr(24)
			const (
				threads  = 4
				txnsEach = 500
			)
			var wg sync.WaitGroup
			errs := make(chan error, threads)
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							v := tx.Read(ctr)
							runtime.Gosched()
							tx.Write(ctr, v+1)
							return nil
						}); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			st := rt.Stats()
			if got := mem.LoadDirect(ctr); got != threads*txnsEach || st.Commits != threads*txnsEach {
				t.Fatalf("counter = %d after %d commits, want %d", got, st.Commits, threads*txnsEach)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
		})
	}
}

// TestInvisibleWriterVsStoreNT orders a strongly isolated StoreNT against an
// invisible read-then-write of the stored word both ways: a store landing
// between the read and the write must fail the write's stamp check (the
// retry then builds on the stored value), and a store arriving once the
// write is acquired must be denied.
func TestInvisibleWriterVsStoreNT(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{Isolation: StrongIsolation})
			w := mem.WordAddr(40)
			th, nt := rt.NewThread(), rt.NewThread()
			attempt := 0
			if err := th.Atomic(func(tx *Tx) error {
				attempt++
				v := tx.Read(w)
				if attempt == 1 {
					if err := nt.StoreNT(w, 100); err != nil {
						t.Fatalf("StoreNT beside an invisible read: %v", err)
					}
				}
				tx.Write(w, v+1)
				if err := nt.StoreNT(w, 200); err == nil {
					t.Fatal("StoreNT into a write-held chunk was not denied")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := mem.LoadDirect(w); attempt != 2 || got != 101 {
				t.Fatalf("attempts/word = %d/%d, want 2/101: the store between read and write was lost", attempt, got)
			}
			if st := rt.Stats(); st.ROValidationAborts != 1 {
				t.Fatalf("ROValidationAborts = %d, want 1", st.ROValidationAborts)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after commit = %d", occ)
			}
		})
	}
}

// TestInvisibleWriterVsStoreNTRace is the concurrent form: one thread stores
// an increasing sequence non-transactionally, one reads the word invisibly
// and writes it back unchanged (a stale write-back would regress it), and an
// observer asserts from invisible snapshots that it never decreases.
func TestInvisibleWriterVsStoreNTRace(t *testing.T) {
	atLeastTwoPs(t)
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{Isolation: StrongIsolation})
			w := mem.WordAddr(40)
			const stores = 2000
			var stop atomic.Bool
			var regress atomic.Uint64
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			wg.Add(3)
			go func() { // non-transactional storer
				defer wg.Done()
				defer stop.Store(true)
				th := rt.NewThread()
				for k := uint64(1); k <= stores; k++ {
					for th.StoreNT(w, k) != nil {
						runtime.Gosched() // denied by the transaction: retry
					}
				}
			}()
			go func() { // invisible read, then write-back of the value read
				defer wg.Done()
				th := rt.NewThread()
				for !stop.Load() {
					if err := th.Atomic(func(tx *Tx) error {
						v := tx.Read(w)
						runtime.Gosched()
						tx.Write(w, v)
						return nil
					}); err != nil {
						errs <- err
						return
					}
				}
			}()
			go func() { // observer
				defer wg.Done()
				th := rt.NewThread()
				var last uint64
				for !stop.Load() {
					if err := th.Atomic(func(tx *Tx) error {
						if v := tx.Read(w); v < last {
							regress.Add(1)
						} else {
							last = v
						}
						return nil
					}); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if n := regress.Load(); n != 0 {
				t.Fatalf("word regressed %d times: a transaction wrote back a value a StoreNT had replaced", n)
			}
			if got := mem.LoadDirect(w); got != stores {
				t.Fatalf("final word = %d, want the last store %d", got, stores)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}

// TestAtomicHammerInvisibleUpdate is the update-heavy recorded hammer of the
// invisible path: on every table organization two thirds of the goroutines
// move one unit between two of eight accounts after reading a third they do
// not write — so every writer commits with an invisible read set — while
// the rest assert the conserved total from read-only snapshots. The
// recorded history (CI replays it through tmbp check) must be opaque.
func TestAtomicHammerInvisibleUpdate(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(256)
			cfg := Config{Table: tab, Memory: mem, Seed: 5, FuzzYield: 0.2}
			attachRecorder(t, &cfg)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Eight accounts: pairs share a chunk, the pairs are 10 words
			// apart so they spread over chunks and cells.
			const (
				accounts = 8
				initial  = 100
				writers  = 4
				readers  = 2
				txnsEach = 120
			)
			acct := func(i int) addr.Addr { return mem.WordAddr(i/2*10 + i%2) }
			// Funded by a transaction, so the recorded history contains it.
			if err := rt.NewThread().Atomic(func(tx *Tx) error {
				for i := 0; i < accounts; i++ {
					tx.Write(acct(i), initial)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var torn atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					rng := xrand.NewWithStream(17, uint64(gid))
					for i := 0; i < txnsEach; i++ {
						from := int(rng.Uint64() % accounts)
						to := (from + 1 + int(rng.Uint64()%(accounts-1))) % accounts
						look := int(rng.Uint64() % accounts)
						if err := th.Atomic(func(tx *Tx) error {
							_ = tx.Read(acct(look))
							f, o := tx.Read(acct(from)), tx.Read(acct(to))
							tx.Write(acct(from), f-1)
							tx.Write(acct(to), o+1)
							return nil
						}); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							var sum uint64
							for a := 0; a < accounts; a++ {
								sum += tx.Read(acct(a))
							}
							if sum != accounts*initial {
								torn.Store(true)
							}
							return nil
						}); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if torn.Load() {
				t.Fatal("a snapshot saw the total off: torn or skewed commit")
			}
			var sum uint64
			for a := 0; a < accounts; a++ {
				sum += mem.LoadDirect(acct(a))
			}
			if sum != accounts*initial {
				t.Fatalf("total = %d, want %d", sum, accounts*initial)
			}
			if st := rt.Stats(); st.Commits != 1+(writers+readers)*txnsEach {
				t.Fatalf("commits = %d, want %d", st.Commits, 1+(writers+readers)*txnsEach)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}

// TestInvisibleBlindWriteThenReadSnapshot: a chunk an invisible attempt
// write-acquires without having read it has no validated stamp, so the first
// read of one of its unwritten words must make the snapshot-cover check a
// first read makes. T reads X; a foreign commit writes Z.w1 — together with
// X, or alone — T writes Z.w0 and then reads Z.w1. Beside the old X the new
// Z.w1 must never be returned (the attempt aborts: extension finds X moved);
// with X untouched the snapshot extends and the attempt commits.
func TestInvisibleBlindWriteThenReadSnapshot(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, alsoX := range []bool{true, false} {
			name := kind + "/foreign-writes-Z"
			if alsoX {
				name = kind + "/foreign-writes-X-and-Z"
			}
			t.Run(name, func(t *testing.T) {
				rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
				x, zw0, zw1 := mem.WordAddr(0), mem.WordAddr(80), mem.WordAddr(81)
				th, other := rt.NewThread(), rt.NewThread()
				attempt := 0
				var gotX, gotZ uint64
				if err := th.Atomic(func(tx *Tx) error {
					attempt++
					gotX = tx.Read(x)
					if attempt == 1 {
						if err := other.Atomic(func(otx *Tx) error {
							if alsoX {
								otx.Write(x, 1)
							}
							otx.Write(zw1, 1)
							return nil
						}); err != nil {
							t.Fatal(err)
						}
					}
					tx.Write(zw0, 7)
					gotZ = tx.Read(zw1)
					if alsoX && gotX != gotZ {
						t.Fatalf("attempt %d read X = %d beside Z.w1 = %d: two halves of one commit", attempt, gotX, gotZ)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				st := rt.Stats()
				if alsoX {
					if attempt != 2 || gotX != 1 || gotZ != 1 || st.ROValidationAborts != 1 {
						t.Fatalf("attempts %d, X/Z.w1 = %d/%d, stats %+v: want one validation abort, then 1/1", attempt, gotX, gotZ, st)
					}
				} else if attempt != 1 || gotX != 0 || gotZ != 1 || st.ROExtensions != 1 {
					t.Fatalf("attempts %d, X/Z.w1 = %d/%d, stats %+v: want one extension and no abort", attempt, gotX, gotZ, st)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("occupancy after commit = %d", occ)
				}
			})
		}
	}
}

// TestAtomicHammerInvisibleBlindWrite is the recorded hammer of a read in a
// chunk the attempt wrote first, at block granularity. Each of four pairs
// keeps a word X and the second word of another block Z equal; bumpers
// advance both in one commit, and probers read X invisibly, overwrite Z's
// first word without reading it, then read Z's second word and compare —
// inside the transaction, so a zombie's torn view counts. CI replays the
// recorded history through tmbp check.
func TestAtomicHammerInvisibleBlindWrite(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(256)
			cfg := Config{Table: tab, Memory: mem, Seed: 7, FuzzYield: 0.3}
			attachRecorder(t, &cfg)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const (
				pairs    = 4
				bumpers  = 2
				probers  = 4
				txnsEach = 150
			)
			xOf := func(p int) addr.Addr { return mem.WordAddr(16 * p) }
			zOf := func(p, w int) addr.Addr { return mem.WordAddr(16*p + 8 + w) }
			var torn atomic.Uint64
			var wg sync.WaitGroup
			errs := make(chan error, bumpers+probers)
			for g := 0; g < bumpers+probers; g++ {
				wg.Add(1)
				go func(gid int) {
					defer wg.Done()
					th := rt.NewThread()
					rng := xrand.NewWithStream(23, uint64(gid))
					for i := 0; i < txnsEach; i++ {
						p := int(rng.Uint64() % pairs)
						fn := func(tx *Tx) error { // prober
							vx := tx.Read(xOf(p))
							tx.Write(zOf(p, 0), uint64(gid))
							if tx.Read(zOf(p, 1)) != vx {
								torn.Add(1)
							}
							return nil
						}
						if gid < bumpers {
							fn = func(tx *Tx) error {
								v := tx.Read(xOf(p)) + 1
								tx.Write(xOf(p), v)
								tx.Write(zOf(p, 1), v)
								return nil
							}
						}
						if err := th.Atomic(fn); err != nil {
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
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d attempts read X beside a Z.w1 of another commit", n)
			}
			var bumps uint64
			for p := 0; p < pairs; p++ {
				vx, vz := mem.LoadDirect(xOf(p)), mem.LoadDirect(zOf(p, 1))
				if vx != vz {
					t.Fatalf("pair %d ended X = %d, Z.w1 = %d", p, vx, vz)
				}
				bumps += vx
			}
			if st := rt.Stats(); bumps != bumpers*txnsEach || st.Commits != (bumpers+probers)*txnsEach {
				t.Fatalf("bumps = %d, commits = %d, want %d and %d", bumps, st.Commits, bumpers*txnsEach, (bumpers+probers)*txnsEach)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}

// TestInvisiblePinnedFirstReadCoversStamp: a first read that is pinned
// because it sampled the attempt's own hold still owes the snapshot-cover
// check, in the Read and in the ReadBlock form alike. On a two-entry table a
// foreign commit raises cell 0's stamp past rv; T then writes A and first-
// reads B, both in cell 0: one pin, one extension, no abort.
func TestInvisiblePinnedFirstReadCoversStamp(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, block := range []bool{false, true} {
			name := kind + "/Read"
			if block {
				name = kind + "/ReadBlock"
			}
			t.Run(name, func(t *testing.T) {
				rt, tab, mem := newInvisibleRuntime(t, kind, 2, 256, Config{})
				a, b, c := mem.WordAddr(0), mem.WordAddr(16), mem.WordAddr(32) // blocks 0, 2, 4: cell 0
				th, other := rt.NewThread(), rt.NewThread()
				if err := th.Atomic(func(tx *Tx) error {
					if err := other.Atomic(func(otx *Tx) error { otx.Write(c, 1); return nil }); err != nil {
						t.Fatal(err)
					}
					tx.Write(a, 1)
					if block {
						tx.ReadBlock(addr.BlockOf(b))
					} else {
						tx.Read(b)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if st := rt.Stats(); st.Aborts != 0 || st.ROPromotions != 1 || st.ROExtensions != 1 {
					t.Fatalf("stats = %+v, want one pin, one extension, no abort", st)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("occupancy after commit = %d", occ)
				}
			})
		}
	}
}
