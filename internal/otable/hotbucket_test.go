package otable

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/xrand"
)

// TestHotBucketHammer drives concurrent acquire/release/upgrade traffic
// from many goroutines onto a handful of blocks that all hash to a single
// bucket — maximum aliasing, the worst case for the lock-free chain walk.
// It asserts the two properties the ownership table owes its callers under
// real concurrency:
//
//   - exclusivity: a granted write never overlaps another holder on the
//     same slot, and granted reads never overlap a writer, checked through
//     a per-slot guard counter that only permission holders touch;
//   - no lost releases: after every goroutine has released everything, all
//     guards read zero and the table drains to zero occupancy (and zero
//     records for the per-block tables).
//
// With more aliasing blocks than reapDepth, the tagged chains keep
// free parked records past the reap threshold, so the hammer also
// exercises the claim-versus-condemn CAS arbitration and the helped
// mark/unlink/retire pipeline concurrently with fresh inserts — the full
// record lifecycle, under -race.
func TestHotBucketHammer(t *testing.T) {
	const (
		buckets    = 64 // table entries
		aliases    = 8  // blocks on one bucket: > reapDepth forces reaping
		hot        = addr.Block(5)
		goroutines = 8
		iters      = 4000
		wrGuard    = int64(1) << 32 // writer's guard stamp; reads add 1
	)
	mk := func(kind string) Table {
		tab, err := New(kind, hash.NewMask(buckets))
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		return tab
	}
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab := mk(kind)
			blocks := make([]addr.Block, aliases)
			for i := range blocks {
				blocks[i] = hot + addr.Block(i*buckets) // all hash to bucket hot
			}
			// One guard per slot: per block for tagged, one shared
			// guard for tagless (where the aliasing blocks are one slot).
			guards := make(map[uint64]*atomic.Int64)
			guardOf := make([]*atomic.Int64, aliases)
			for i, b := range blocks {
				slot := tab.SlotOf(b)
				if guards[slot] == nil {
					guards[slot] = new(atomic.Int64)
				}
				guardOf[i] = guards[slot]
			}
			var violations atomic.Int64
			var upgrades, writes, reads atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					r := xrand.NewWithStream(99, uint64(id))
					tx := TxID(id + 1)
					for i := 0; i < iters; i++ {
						bi := r.Intn(aliases)
						b, guard := blocks[bi], guardOf[bi]
						switch r.Intn(3) {
						case 0: // read, then release
							if out, _ := AcquireRead(tab, tx, b); out != Granted {
								continue
							}
							if guard.Add(1) <= 0 {
								violations.Add(1) // writer held the slot
							}
							reads.Add(1)
							guard.Add(-1)
							ReleaseRead(tab, tx, b)
						case 1: // write, then release
							out, _ := AcquireWrite(tab, tx, b, 0)
							if out != Granted {
								continue
							}
							if guard.Add(-wrGuard) != -wrGuard {
								violations.Add(1) // someone else held the slot
							}
							writes.Add(1)
							guard.Add(wrGuard)
							ReleaseWrite(tab, tx, b)
						default: // read, try to upgrade, release what's held
							if out, _ := AcquireRead(tab, tx, b); out != Granted {
								continue
							}
							if guard.Add(1) <= 0 {
								violations.Add(1)
							}
							if out, _ := AcquireWrite(tab, tx, b, 1); out == Upgraded {
								// Our share became exclusivity: swap the
								// read stamp for the write stamp and verify
								// no one else is inside.
								if guard.Add(-wrGuard-1) != -wrGuard {
									violations.Add(1)
								}
								upgrades.Add(1)
								guard.Add(wrGuard)
								ReleaseWrite(tab, tx, b)
							} else {
								guard.Add(-1)
								ReleaseRead(tab, tx, b)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if n := violations.Load(); n != 0 {
				t.Fatalf("%d exclusivity violations on the hot bucket", n)
			}
			for slot, g := range guards {
				if v := g.Load(); v != 0 {
					t.Fatalf("guard for slot %d = %d after drain, want 0", slot, v)
				}
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d, want 0 (lost release)", occ)
			}
			if reads.Load() == 0 || writes.Load() == 0 || upgrades.Load() == 0 {
				t.Fatalf("hammer did not exercise all paths: reads=%d writes=%d upgrades=%d",
					reads.Load(), writes.Load(), upgrades.Load())
			}
		})
	}
}

// TestHotBucketConflictTargets is the conflict-target variant of the hot
// bucket hammer: a hot block cycles between a small set of legitimate
// writer/reader holders while streamer goroutines churn unique tags through
// the same bucket, keeping the insert/park/condemn/unlink/retire/recycle
// pipeline busy — so the record backing the hot block has slab neighbors
// being condemned and reused while conflicts are being reported against it.
// Probers assert that every writer denial names a current legitimate holder
// (never a streamer, never a prober: a stale state word from a recycled
// record would leak exactly such an ID), and that every reader denial
// reports a plausible foreign share count.
func TestHotBucketConflictTargets(t *testing.T) {
	const (
		buckets   = 64
		hot       = addr.Block(5)
		holders   = 3 // TxIDs 1..holders acquire the hot block legitimately
		probers   = 2
		streamers = 2
		iters     = 4000
		streamLen = 64
	)
	t.Run("tagged", func(t *testing.T) {
		tab := NewTagged(hash.NewMask(buckets))
		var badWriter, badReaders atomic.Int64
		var denials atomic.Int64
		var wg sync.WaitGroup
		// Hold the block as holder 1 until a prober has been denied, so
		// that every run verifies a denial whatever the scheduler does.
		if out, _ := AcquireWrite(tab, 1, hot, 0); out != Granted {
			t.Fatalf("initial hold: %v", out)
		}
		for h := 0; h < holders; h++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				r := xrand.NewWithStream(41, uint64(id))
				tx := TxID(id + 1)
				for i := 0; i < iters; i++ {
					if r.Intn(2) == 0 {
						if out, _ := AcquireWrite(tab, tx, hot, 0); out == Granted {
							ReleaseWrite(tab, tx, hot)
						}
					} else {
						if out, _ := AcquireRead(tab, tx, hot); out == Granted {
							ReleaseRead(tab, tx, hot)
						}
					}
				}
			}(h)
		}
		for s := 0; s < streamers; s++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				tx := TxID(1000 + id)
				base := addr.Block(1_000_000 * (id + 1))
				for i := 0; i < iters; i++ {
					b := base + addr.Block((i%streamLen)*buckets) + hot
					if out, _ := AcquireWrite(tab, tx, b, 0); out == Granted {
						ReleaseWrite(tab, tx, b)
					}
				}
			}(s)
		}
		for p := 0; p < probers; p++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				tx := TxID(100 + id)
				// Writers of the hot block are the holders and the other
				// probers; its readers are holders only. A streamer ID
				// (1000+) or anything else in a denial is a stale leak.
				legitWriter := func(w TxID) bool {
					return (w >= 1 && w <= holders) || (w >= 100 && w < 100+probers && w != tx)
				}
				for i := 0; i < iters; i++ {
					out, ci := AcquireWrite(tab, tx, hot, 0)
					switch out {
					case Granted:
						ReleaseWrite(tab, tx, hot)
					case ConflictWriter:
						denials.Add(1)
						if w, ok := ci.Writer(); !ok || !legitWriter(w) {
							badWriter.Add(1)
						}
					case ConflictReaders:
						denials.Add(1)
						if n, ok := ci.Readers(); !ok || n < 1 || n > holders {
							badReaders.Add(1)
						}
					}
				}
			}(p)
		}
		for denials.Load() == 0 {
			runtime.Gosched()
		}
		ReleaseWrite(tab, 1, hot)
		wg.Wait()
		if n := badWriter.Load(); n != 0 {
			t.Fatalf("%d writer denials named an opponent outside the holder set (stale owner leaked)", n)
		}
		if n := badReaders.Load(); n != 0 {
			t.Fatalf("%d reader denials reported an impossible share count", n)
		}
		if occ := tab.Occupied(); occ != 0 {
			t.Fatalf("occupancy after drain = %d, want 0", occ)
		}
	})
}

// TestHotBucketHandleHammer is the release-by-handle variant of the hot
// bucket hammer: every grant's handle is carried to its release or upgrade,
// with a random half of the releases going through the walking path so both
// release flavors interleave on the same records. Streaming goroutines
// churn unique tags through the same bucket concurrently, keeping the
// reap/retire/recycle pipeline busy — so handles are continually issued
// against records whose slab neighbors are being reused, and the
// generation validation on every handle CAS is what keeps the exclusivity
// guards and the final drain exact.
func TestHotBucketHandleHammer(t *testing.T) {
	const (
		buckets    = 64
		aliases    = 8
		hot        = addr.Block(5)
		goroutines = 8
		iters      = 4000
		streamLen  = 64 // unique tags each streamer cycles through the bucket
		wrGuard    = int64(1) << 32
	)
	t.Run("tagged", func(t *testing.T) {
		tab := NewTagged(hash.NewMask(buckets))
		blocks := make([]addr.Block, aliases)
		guards := make([]*atomic.Int64, aliases)
		for i := range blocks {
			blocks[i] = hot + addr.Block(i*buckets)
			guards[i] = new(atomic.Int64)
		}
		var violations atomic.Int64
		var upgrades, writes, reads atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				r := xrand.NewWithStream(77, uint64(id))
				tx := TxID(id + 1)
				if id >= goroutines-2 {
					// Streamer: walk unique tags through the hot bucket,
					// forcing insert/park/condemn/unlink/retire/recycle
					// churn under everyone else's handles.
					base := addr.Block(1_000_000 * (id + 1))
					for i := 0; i < iters; i++ {
						b := base + addr.Block((i%streamLen)*buckets) + hot
						out, _, h := tab.AcquireWriteH(tx, b, 0, NoHandle)
						if out != Granted {
							continue
						}
						if r.Intn(2) == 0 {
							tab.ReleaseWriteH(tx, b, h)
						} else {
							tab.ReleaseWriteH(tx, b, NoHandle) // walking release
						}
					}
					return
				}
				for i := 0; i < iters; i++ {
					bi := r.Intn(aliases)
					b, guard := blocks[bi], guards[bi]
					viaHandle := r.Intn(2) == 0
					switch r.Intn(3) {
					case 0:
						out, _, h := tab.AcquireReadH(tx, b)
						if out != Granted {
							continue
						}
						if guard.Add(1) <= 0 {
							violations.Add(1)
						}
						reads.Add(1)
						guard.Add(-1)
						if !viaHandle {
							h = NoHandle
						}
						tab.ReleaseReadH(tx, b, h)
					case 1:
						out, _, h := tab.AcquireWriteH(tx, b, 0, NoHandle)
						if out != Granted {
							continue
						}
						if guard.Add(-wrGuard) != -wrGuard {
							violations.Add(1)
						}
						writes.Add(1)
						guard.Add(wrGuard)
						if !viaHandle {
							h = NoHandle
						}
						tab.ReleaseWriteH(tx, b, h)
					default:
						out, _, h := tab.AcquireReadH(tx, b)
						if out != Granted {
							continue
						}
						if guard.Add(1) <= 0 {
							violations.Add(1)
						}
						if up, _, h2 := tab.AcquireWriteH(tx, b, 1, h); up == Upgraded {
							if guard.Add(-wrGuard-1) != -wrGuard {
								violations.Add(1)
							}
							upgrades.Add(1)
							guard.Add(wrGuard)
							if !viaHandle {
								h2 = NoHandle
							}
							tab.ReleaseWriteH(tx, b, h2)
						} else {
							guard.Add(-1)
							tab.ReleaseReadH(tx, b, h)
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if n := violations.Load(); n != 0 {
			t.Fatalf("%d exclusivity violations with handle-based releases", n)
		}
		for i, g := range guards {
			if v := g.Load(); v != 0 {
				t.Fatalf("guard for block %v = %d after drain, want 0", blocks[i], v)
			}
		}
		if occ := tab.Occupied(); occ != 0 {
			t.Fatalf("occupancy after drain = %d, want 0 (lost release)", occ)
		}
		if reads.Load() == 0 || writes.Load() == 0 || upgrades.Load() == 0 {
			t.Fatalf("hammer did not exercise all paths: reads=%d writes=%d upgrades=%d",
				reads.Load(), writes.Load(), upgrades.Load())
		}
	})
}
