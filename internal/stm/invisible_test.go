package stm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// atomicVisible runs fn as one transaction on the visible escape: with
// roStreak already at roLimit, every attempt reads under read shares, as
// the attempts of a transaction that validation killed roLimit times do.
// It is the test seam for whatever needs an optimistic read share.
func atomicVisible(th *Thread, fn func(tx *Tx) error) error {
	th.roStreak = roLimit
	return th.Atomic(fn)
}

// undrain leaves one drawn stamp unfinished for good, as a writer parked
// between its draw and its release would: no later attempt of rt begins
// drained, so every first read takes its version sample. It is the test
// seam for whatever needs the sampled first read on a still clock.
func undrain(rt *Runtime) { rt.epoch.Add(1) }

// assertDrained fails the test unless every stamp rt has drawn was counted
// finished. Checked at quiescence: a stamp path that missed its count would
// leave every later attempt undrained for the runtime's life, and nothing
// else would notice.
func assertDrained(t testing.TB, rt *Runtime) {
	t.Helper()
	if d, e := rt.done.Load(), rt.epoch.Load(); d != e {
		t.Errorf("at quiescence done = %d, epoch = %d: %d drawn stamps never counted finished", d, e, e-d)
	}
}

// newInvisibleRuntime builds a runtime on a fresh table of the given kind.
func newInvisibleRuntime(t *testing.T, kind string, entries uint64, words int, cfg Config) (*Runtime, otable.Table, *Memory) {
	t.Helper()
	tab, err := otable.New(kind, hash.NewMask(entries))
	if err != nil {
		t.Fatal(err)
	}
	rt, mem := newInvisibleRuntimeOn(t, tab, words, cfg)
	return rt, tab, mem
}

// newInvisibleRuntimeOn is newInvisibleRuntime over a table the caller built
// (or wrapped).
func newInvisibleRuntimeOn(t *testing.T, tab otable.Table, words int, cfg Config) (*Runtime, *Memory) {
	t.Helper()
	mem := NewMemory(words)
	cfg.Table = tab
	cfg.Memory = mem
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, mem
}

// TestInvisibleReadOnlyNoAcquires is the acceptance test of the fast path:
// on every table organization, a read-only transaction touches the
// ownership table zero times — no read acquires, no write acquires, no
// releases — and is counted as an invisible commit.
func TestInvisibleReadOnlyNoAcquires(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
			for i := 0; i < 16; i++ {
				mem.StoreDirect(mem.WordAddr(i), uint64(100+i))
			}
			th := rt.NewThread()
			for n := 0; n < 10; n++ {
				if err := th.Atomic(func(tx *Tx) error {
					for i := 0; i < 16; i++ {
						if v := tx.Read(mem.WordAddr(i)); v != uint64(100+i) {
							t.Fatalf("word %d = %d, want %d", i, v, 100+i)
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			ts := tab.Stats()
			if ts.ReadAcquires != 0 || ts.WriteAcquires != 0 || ts.Releases != 0 {
				t.Fatalf("%s table saw traffic from read-only transactions: %+v", kind, ts)
			}
			st := rt.Stats()
			if st.Commits != 10 || st.ROCommits != 10 {
				t.Fatalf("Commits/ROCommits = %d/%d, want 10/10", st.Commits, st.ROCommits)
			}
			if st.Aborts != 0 || st.ROValidationAborts != 0 {
				t.Fatalf("uncontended read-only run aborted: %+v", st)
			}
		})
	}
}

// TestInvisibleReadersIgnored pins the deprecated Config.InvisibleReaders:
// there is one read protocol, so either setting runs a read-only
// transaction with zero table traffic and counts it as an invisible commit.
func TestInvisibleReadersIgnored(t *testing.T) {
	for _, kind := range sweepKinds() {
		for _, invisible := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/%v", kind, invisible), func(t *testing.T) {
				rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{InvisibleReaders: invisible})
				if err := rt.NewThread().Atomic(func(tx *Tx) error {
					tx.Read(mem.WordAddr(0))
					tx.Read(mem.WordAddr(8))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if ts := tab.Stats(); ts.ReadAcquires != 0 || ts.WriteAcquires != 0 || ts.Releases != 0 {
					t.Fatalf("read-only transaction touched the table: %+v", ts)
				}
				if st := rt.Stats(); st.ROCommits != 1 {
					t.Fatalf("ROCommits = %d, want 1", st.ROCommits)
				}
			})
		}
	}
}

// TestInvisibleReadBlockFootprint drives the footprint-only ReadBlock path
// (trace replay's read) through the invisible fast path.
func TestInvisibleReadBlockFootprint(t *testing.T) {
	rt, tab, mem := newInvisibleRuntime(t, "tagged", 64, 256, Config{})
	th := rt.NewThread()
	for n := 0; n < 5; n++ {
		if err := th.Atomic(func(tx *Tx) error {
			for b := 0; b < 8; b++ {
				tx.ReadBlock(addr.BlockOf(mem.WordAddr(b * 8)))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if ts := tab.Stats(); ts.ReadAcquires != 0 {
		t.Fatalf("footprint reads acquired: %+v", ts)
	}
	if st := rt.Stats(); st.ROCommits != 5 {
		t.Fatalf("ROCommits = %d, want 5", st.ROCommits)
	}
}

// TestInvisiblePromotionOnWrite: nothing is promoted — a transaction that
// reads k chunks invisibly and then writes one of them stays invisible. On
// every table organization it commits with zero read acquires, exactly one
// write acquire and one release; read-own-write, the re-read of an invisibly
// cached word and the read of an unwritten word of the written chunk are all
// correct; and it counts neither as a read-only commit nor as a pin.
func TestInvisiblePromotionOnWrite(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, tab, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
			const k = 4
			for i := 0; i < k; i++ {
				mem.StoreDirect(mem.WordAddr(8*i), uint64(10+i))
			}
			mem.StoreDirect(mem.WordAddr(9), 77)
			th := rt.NewThread()
			readAll := func(tx *Tx) (sum uint64) {
				for i := 0; i < k; i++ {
					sum += tx.Read(mem.WordAddr(8 * i))
				}
				return sum
			}
			if err := th.Atomic(func(tx *Tx) error { readAll(tx); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := th.Atomic(func(tx *Tx) error {
				sum := readAll(tx)             // invisible
				tx.Write(mem.WordAddr(8), sum) // chunk 1: read, now written
				if got := tx.Read(mem.WordAddr(8)); got != sum {
					t.Fatalf("read-own-write = %d, want %d", got, sum)
				}
				if got := tx.Read(mem.WordAddr(0)); got != 10 {
					t.Fatalf("re-read of a cached word = %d, want 10", got)
				}
				if got := tx.Read(mem.WordAddr(9)); got != 77 {
					t.Fatalf("unwritten word of the written chunk = %d, want 77", got)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := mem.LoadDirect(mem.WordAddr(8)); got != 10+11+12+13 {
				t.Fatalf("word 8 = %d, want 46", got)
			}
			if ts := tab.Stats(); ts.ReadAcquires != 0 || ts.WriteAcquires != 1 || ts.Upgrades != 0 || ts.Releases != 1 {
				t.Fatalf("read-%d-write-1 table traffic = %+v, want exactly one write acquire and one release", k, ts)
			}
			st := rt.Stats()
			if st.Commits != 2 || st.Aborts != 0 || st.ROCommits != 1 || st.ROPromotions != 0 {
				t.Fatalf("stats = %+v, want 2 commits, 0 aborts, the read-only one on the fast path, 0 pins", st)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after commit = %d", occ)
			}
		})
	}
}

// TestInvisibleValidationAbortOnConcurrentWrite interleaves a committing
// writer between an invisible reader's first read and its commit: the
// reader's cached snapshot is still self-consistent, so the attempt must be
// killed by commit-time validation and the retry must observe the new value.
func TestInvisibleValidationAbortOnConcurrentWrite(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, _, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
			reader, writer := rt.NewThread(), rt.NewThread()
			x := mem.WordAddr(0)
			attempt := 0
			var first, second uint64
			if err := reader.Atomic(func(tx *Tx) error {
				attempt++
				v := tx.Read(x)
				if attempt == 1 {
					first = v
					// Commit a write to x from another thread mid-attempt.
					if err := writer.Atomic(func(wtx *Tx) error {
						wtx.Write(x, wtx.Read(x)+5)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					// The repeat read serves the cached snapshot — consistent
					// with the attempt's serialization point, not with memory.
					if again := tx.Read(x); again != v {
						t.Fatalf("repeat read = %d, want cached %d", again, v)
					}
				} else {
					second = v
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempt != 2 || first != 0 || second != 5 {
				t.Fatalf("attempts/first/second = %d/%d/%d, want 2/0/5", attempt, first, second)
			}
			if st := rt.Stats(); st.ROValidationAborts != 1 {
				t.Fatalf("ROValidationAborts = %d, want 1", st.ROValidationAborts)
			}
		})
	}
}

// TestInvisibleSnapshotExtension commits a writer to a *different* cell
// between an invisible reader's begin and a later first read of that cell:
// the late read observes a stamp newer than the snapshot, and the reader
// must extend rather than abort (its earlier reads are untouched).
func TestInvisibleSnapshotExtension(t *testing.T) {
	rt, _, mem := newInvisibleRuntime(t, "tagged", 1024, 4096, Config{})
	reader, writer := rt.NewThread(), rt.NewThread()
	x, y := mem.WordAddr(0), mem.WordAddr(512)
	if err := reader.Atomic(func(tx *Tx) error {
		_ = tx.Read(x)
		if err := writer.Atomic(func(wtx *Tx) error {
			wtx.Write(y, 7)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if v := tx.Read(y); v != 7 {
			t.Fatalf("extended read of y = %d, want 7", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.ROExtensions != 1 || st.ROValidationAborts != 0 || st.ROCommits != 1 {
		t.Fatalf("extensions/valAborts/roCommits = %d/%d/%d, want 1/0/1",
			st.ROExtensions, st.ROValidationAborts, st.ROCommits)
	}
}

// TestInvisibleFallbackAfterValidationAborts starves an invisible reader
// with a writer that clobbers its read set on every invisible attempt: after
// roLimit validation aborts the reader must stop betting on invisibility,
// read under a read share, and commit.
func TestInvisibleFallbackAfterValidationAborts(t *testing.T) {
	rt, tab, mem := newInvisibleRuntime(t, "tagged", 64, 256, Config{})
	reader, writer := rt.NewThread(), rt.NewThread()
	x := mem.WordAddr(0)
	attempt := 0
	if err := reader.Atomic(func(tx *Tx) error {
		attempt++
		_ = tx.Read(x)
		if attempt <= roLimit {
			// Invalidate the read set while the attempt is still invisible.
			// Once the reader falls back it holds a real read share, which
			// this write would conflict with — so stop interfering.
			if err := writer.Atomic(func(wtx *Tx) error {
				wtx.Write(x, wtx.Read(x)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempt != roLimit+1 {
		t.Fatalf("committed on attempt %d, want %d", attempt, roLimit+1)
	}
	st := rt.Stats()
	if st.ROValidationAborts != roLimit {
		t.Fatalf("ROValidationAborts = %d, want %d", st.ROValidationAborts, roLimit)
	}
	if st.ROCommits != 0 {
		t.Fatalf("ROCommits = %d for a fallback commit, want 0", st.ROCommits)
	}
	// The final attempt went through the table: the reader's acquire shows.
	if ts := tab.Stats(); ts.ReadAcquires == 0 {
		t.Fatal("fallback attempt performed no read acquire")
	}
}

// TestInvisibleReaderSeesVisibleEscapeWriter: a writing commit on the
// visible escape draws and publishes its stamp like any other, so an
// invisible reader that read the chunk before it is killed by validation
// instead of committing the overwritten value.
func TestInvisibleReaderSeesVisibleEscapeWriter(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, _, mem := newInvisibleRuntime(t, kind, 64, 256, Config{})
			reader, writer := rt.NewThread(), rt.NewThread()
			x := mem.WordAddr(0)
			attempt := 0
			var got uint64
			if err := reader.Atomic(func(tx *Tx) error {
				attempt++
				got = tx.Read(x)
				if attempt == 1 {
					if err := atomicVisible(writer, func(wtx *Tx) error {
						wtx.Write(x, wtx.Read(x)+5)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if attempt != 2 || got != 5 {
				t.Fatalf("attempts/value = %d/%d, want 2/5", attempt, got)
			}
		})
	}
}

// TestInvisibleSeesStoreNT checks that a strongly isolated non-transactional
// store is visible to the validation protocol: it advances the version cell
// it wrote, so an invisible reader spanning it aborts and rereads rather
// than committing against silently changed memory.
func TestInvisibleSeesStoreNT(t *testing.T) {
	rt, _, mem := newInvisibleRuntime(t, "tagless", 64, 256, Config{Isolation: StrongIsolation})
	reader, nt := rt.NewThread(), rt.NewThread()
	x := mem.WordAddr(0)
	attempt := 0
	var got uint64
	if err := reader.Atomic(func(tx *Tx) error {
		attempt++
		got = tx.Read(x)
		if attempt == 1 {
			if err := nt.StoreNT(x, 9); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if attempt != 2 || got != 9 {
		t.Fatalf("attempts/value = %d/%d, want 2/9", attempt, got)
	}
}

// TestAtomicHammerInvisibleReadMostly is the contended acceptance hammer of
// the invisible-reader path: on every table organization, writer goroutines
// keep two words of one chunk and one word of another in lockstep while
// read-only goroutines assert the invariant through invisible snapshots. A
// torn read — half of one writer's commit — would break the equality check;
// the recorded history (CI replays it through tmbp check) must be opaque.
func TestAtomicHammerInvisibleReadMostly(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			tab, err := otable.New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			mem := NewMemory(256)
			cfg := Config{Table: tab, Memory: mem, Seed: 3, FuzzYield: 0.2}
			attachRecorder(t, &cfg)
			rt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// x and y share a chunk, z lives elsewhere; writers keep
			// x == y == z.
			x, y, z := mem.WordAddr(0), mem.WordAddr(1), mem.WordAddr(128)
			const (
				writers  = 2
				readers  = 6
				txnsEach = 150
			)
			var torn atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							tx.Write(x, tx.Read(x)+1)
							tx.Write(y, tx.Read(y)+1)
							tx.Write(z, tx.Read(z)+1)
							return nil
						}); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := rt.NewThread()
					for i := 0; i < txnsEach; i++ {
						if err := th.Atomic(func(tx *Tx) error {
							a, b, c := tx.Read(x), tx.Read(y), tx.Read(z)
							if a != b || b != c {
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
				t.Fatal("invisible reader observed a torn writer commit")
			}
			want := uint64(writers * txnsEach)
			if gx, gy, gz := mem.LoadDirect(x), mem.LoadDirect(y), mem.LoadDirect(z); gx != want || gy != want || gz != want {
				t.Fatalf("x/y/z = %d/%d/%d, want %d", gx, gy, gz, want)
			}
			st := rt.Stats()
			if st.Commits != (writers+readers)*txnsEach {
				t.Fatalf("commits = %d, want %d", st.Commits, (writers+readers)*txnsEach)
			}
			if st.ROCommits == 0 {
				t.Fatal("read-mostly hammer produced no invisible commits")
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
			assertDrained(t, rt)
		})
	}
}
