package stm

import (
	"testing"

	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// newBigFootprintRuntime builds a runtime over enough memory for footprint
// blocks plus a generously sized table, so the only capacity pressure is on
// the transaction's own access set.
func newBigFootprintRuntime(t *testing.T, kind string, blocks int, cfg Config) (*Runtime, otable.Table, *Memory) {
	t.Helper()
	tab, err := otable.New(kind, hash.NewMask(8192))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(blocks * 8)
	cfg.Table = tab
	cfg.Memory = mem
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, tab, mem
}

// TestBigFootprintTransactions drives single transactions whose access sets
// spill far past the inline region — 256, 1024, and 4096 distinct blocks —
// on every table organization: all writes land, a same-size read
// transaction sees them, and commit releases everything (the table drains
// back to zero occupancy).
func TestBigFootprintTransactions(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			for _, blocks := range []int{256, 1024, 4096} {
				rt, tab, mem := newBigFootprintRuntime(t, kind, blocks, Config{})
				th := rt.NewThread()
				if err := th.Atomic(func(tx *Tx) error {
					for b := 0; b < blocks; b++ {
						tx.Write(mem.WordAddr(b*8), uint64(1000+b))
					}
					return nil
				}); err != nil {
					t.Fatalf("%d blocks: write txn: %v", blocks, err)
				}
				if err := th.Atomic(func(tx *Tx) error {
					for b := 0; b < blocks; b++ {
						if v := tx.Read(mem.WordAddr(b * 8)); v != uint64(1000+b) {
							t.Fatalf("%d blocks: word %d = %d, want %d", blocks, b*8, v, 1000+b)
						}
					}
					return nil
				}); err != nil {
					t.Fatalf("%d blocks: read txn: %v", blocks, err)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("%d blocks: table still holds %d entries after commit", blocks, occ)
				}
			}
		})
	}
}

// TestBigFootprintZeroAllocSteadyState pins the spill contract at the STM
// level: once a thread's access set has grown to a 1024-block footprint,
// repeating transactions of that size allocates nothing — Reset retains the
// spill table and the generation counter revives it for free.
func TestBigFootprintZeroAllocSteadyState(t *testing.T) {
	const blocks = 1024
	rt, _, mem := newBigFootprintRuntime(t, "tagged", blocks, Config{})
	th := rt.NewThread()
	run := func() {
		if err := th.Atomic(func(tx *Tx) error {
			for b := 0; b < blocks; b++ {
				tx.Write(mem.WordAddr(b*8), uint64(b))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the access set once
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state %d-block transaction allocates %.1f/op, want 0", blocks, allocs)
	}
}

// TestBigFootprintInvisibleReadOnly: a read-only transaction over 1024
// blocks touches the ownership table zero times, commits on the read-only
// path, and is allocation-free once its read set has grown — drained and
// sampled (undrain) alike, the blocks go to the log and the access set,
// which holds writes only, stays empty.
func TestBigFootprintInvisibleReadOnly(t *testing.T) {
	const blocks = 1024
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			for _, drained := range []bool{true, false} {
				rt, tab, mem := newBigFootprintRuntime(t, kind, blocks, Config{})
				if !drained {
					undrain(rt)
				}
				for b := 0; b < blocks; b++ {
					mem.StoreDirect(mem.WordAddr(b*8), uint64(b))
				}
				th := rt.NewThread()
				var set, fp int
				run := func() {
					if err := th.Atomic(func(tx *Tx) error {
						for b := 0; b < blocks; b++ {
							if v := tx.Read(mem.WordAddr(b * 8)); v != uint64(b) {
								t.Fatalf("word %d = %d, want %d", b*8, v, b)
							}
						}
						set, fp = th.set.Len(), tx.FootprintBlocks()
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
				run()
				if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
					t.Fatalf("drained %v: steady-state invisible scan allocates %.1f/op, want 0", drained, allocs)
				}
				if set != 0 || fp != blocks {
					t.Fatalf("drained %v: access set of %d entries and footprint %d, want 0 and %d", drained, set, fp, blocks)
				}
				if ts := tab.Stats(); ts.ReadAcquires != 0 || ts.WriteAcquires != 0 {
					t.Fatalf("drained %v: invisible scans touched the table: %+v", drained, ts)
				}
				if st := rt.Stats(); st.ROCommits != 12 {
					t.Fatalf("drained %v: ROCommits = %d, want 12", drained, st.ROCommits)
				}
			}
		})
	}
}
