package otable

import (
	"runtime"
	"sync"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/xrand"
)

// hammer runs goroutines performing transactions of random acquires followed
// by a full release, and verifies the table drains. Run under -race this
// exercises the CAS paths (tagless) and striped locks (tagged).
func hammer(t *testing.T, tab Table) {
	t.Helper()
	const (
		goroutines = 8
		txnsEach   = 200
		blocksper  = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.NewWithStream(42, uint64(id))
			fp := NewFootprint(tab, TxID(id+1))
			for txn := 0; txn < txnsEach; txn++ {
				for i := 0; i < blocksper; i++ {
					b := addr.Block(r.Intn(1024))
					if r.Bool() {
						fp.Read(b)
					} else {
						fp.Write(b)
					}
					// Conflicts are expected; we only require that
					// bookkeeping stays consistent.
				}
				fp.ReleaseAll()
			}
		}(g)
	}
	wg.Wait()
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("%s table occupancy after drain = %d, want 0", tab.Kind(), occ)
	}
}

func TestTaglessConcurrentHammer(t *testing.T) {
	hammer(t, NewTagless(hash.NewMask(256)))
}

func TestTaggedConcurrentHammer(t *testing.T) {
	tab := NewTagged(hash.NewMask(256))
	hammer(t, tab)
	if tab.Occupied() != 0 {
		t.Fatalf("records after drain = %d", tab.Occupied())
	}
}

// writeExclusivity checks that two goroutines never both believe they hold
// the same slot for writing: the tracked holder count is incremented after a
// Granted acquire and decremented just before the release, so any overlap in
// the acquire-to-release window of two writers is observed at the increment.
func writeExclusivity(t *testing.T, tab Table) {
	t.Helper()
	holders := make(map[uint64]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.NewWithStream(7, uint64(id))
			tx := TxID(id + 1)
			for i := 0; i < 2000; i++ {
				b := addr.Block(r.Intn(16))
				if out, _, h := tab.AcquireWriteH(tx, b, 0, NoHandle); out == Granted {
					slot := tab.SlotOf(b)
					mu.Lock()
					holders[slot]++
					if holders[slot] != 1 {
						select {
						case fail <- "two concurrent writers on one slot":
						default:
						}
					}
					mu.Unlock()
					runtime.Gosched() // widen the hold window so overlaps interleave
					mu.Lock()
					holders[slot]--
					mu.Unlock()
					tab.ReleaseWriteH(tx, b, h)
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// TestTaglessWriteExclusivity checks that two goroutines never both believe
// they hold the same entry for writing.
func TestTaglessWriteExclusivity(t *testing.T) {
	writeExclusivity(t, NewTagless(hash.NewMask(16)))
}

// TestTaggedWriteExclusivity is the same check on the tagged table, where
// the writers race to claim, park and reclaim each block's record.
func TestTaggedWriteExclusivity(t *testing.T) {
	writeExclusivity(t, NewTagged(hash.NewMask(16)))
}

// TestTaggedDisjointConcurrent verifies the no-false-conflict guarantee
// under real concurrency: goroutines on disjoint blocks never conflict.
func TestTaggedDisjointConcurrent(t *testing.T) {
	tab := NewTagged(hash.NewMask(8)) // tiny: every bucket chains
	const goroutines = 8
	var wg sync.WaitGroup
	conflicts := make(chan Outcome, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := xrand.NewWithStream(13, uint64(id))
			fp := NewFootprint(tab, TxID(id+1))
			for txn := 0; txn < 300; txn++ {
				for i := 0; i < 6; i++ {
					b := addr.Block(r.Intn(512)*goroutines + id)
					var out Outcome
					if r.Bool() {
						out = fp.Read(b)
					} else {
						out = fp.Write(b)
					}
					if out.Conflict() {
						select {
						case conflicts <- out:
						default:
						}
					}
				}
				fp.ReleaseAll()
			}
		}(g)
	}
	wg.Wait()
	select {
	case out := <-conflicts:
		t.Fatalf("tagged table produced conflict %v on disjoint data", out)
	default:
	}
	if tab.Occupied() != 0 {
		t.Fatalf("records = %d", tab.Occupied())
	}
}
