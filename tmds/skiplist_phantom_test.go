package tmds

import (
	"fmt"
	"sync"
	"testing"

	"tmbp"
	"tmbp/internal/xrand"
)

// phantomWorld builds a recorded skiplist world for the phantom schedules:
// a small aliasing-prone table, block granularity, and the keys
// 10/20/30/40/50 pre-inserted.
func phantomWorld(t *testing.T, kind string) (*tmbp.STM, *Skiplist, func()) {
	t.Helper()
	const capacity = 64
	tab, err := tmbp.NewTable(kind, 256, "mask")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(SkiplistWords(capacity))
	cfg := tmbp.STMConfig{Table: tab, Memory: mem, Seed: 21}
	log := attachLog(t, &cfg)
	rt, err := tmbp.NewSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSkiplist(mem, 0, capacity, 17)
	if err != nil {
		t.Fatal(err)
	}
	recordInitialWords(log, mem)
	th := rt.NewThread()
	for _, k := range []uint64{10, 20, 30, 40, 50} {
		if _, err := s.Put(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	return rt, s, func() { checkOpaque(t, log) }
}

// TestSkiplistPhantomInvisibleScan is the deterministic phantom schedule:
// reader A pauses mid-scan on its first visited node, writer B inserts key
// 15 into the scanned range. An invisible scan holds no table state, so
// the writer commits while the reader is paused — and the reader's next
// version validation must catch it, abort the attempt, and re-run the scan
// on the post-insert snapshot. A torn prefix (15 missing but later nodes
// re-read inconsistently) is not legal, and the recorded history proves it.
func TestSkiplistPhantomInvisibleScan(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, s, verify := phantomWorld(t, kind)
			reader := rt.NewThread()

			scanStarted := make(chan struct{})
			resume := make(chan struct{})
			first := true
			var got []uint64
			readerDone := make(chan error, 1)
			go func() {
				readerDone <- reader.Atomic(func(tx *tmbp.Tx) error {
					got = got[:0]
					return s.RangeScanTx(tx, 10, 50, func(k, _ uint64) error {
						got = append(got, k)
						if first && k == 10 {
							first = false
							close(scanStarted)
							<-resume
						}
						return nil
					})
				})
			}()
			<-scanStarted

			// The reader is invisible: the writer sees no opposition and
			// commits while the scan is paused mid-range.
			wth := rt.NewThread()
			if _, err := s.Put(wth, 15, 150); err != nil {
				t.Fatalf("writer: %v", err)
			}
			close(resume)
			if err := <-readerDone; err != nil {
				t.Fatalf("reader: %v", err)
			}
			// The committed splice invalidated the reader's snapshot of node
			// 10's block; validation must have aborted the first attempt and
			// the retry scanned the post-insert state exactly.
			want := []uint64{10, 15, 20, 30, 40, 50}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("invisible scan saw %v, want post-insert %v", got, want)
			}
			if st := rt.Stats(); st.ROValidationAborts == 0 {
				t.Fatalf("no validation abort recorded: %+v", st)
			}
			verify()
		})
	}
}

// scanHammer drives the read-mostly invariant hammer: writers keep the pair
// invariant "key j present iff key j+pairOffset present, with equal values"
// while readers range-scan the whole key space and check that every
// observed snapshot is strictly ascending and pair-consistent — a torn scan
// prefix would surface as a half-present pair. Runs under -race in CI with
// recording; the history must verify opaque. It returns the runtime's
// counters for the caller's assertions.
func scanHammer(t *testing.T, kind string, fallbackAfter int) tmbp.STMStats {
	const (
		pairOffset = 32
		pairKeys   = 32
		capacity   = 96
		writers    = 2
		readers    = 2
		writerTxns = 100
		readerTxns = 25
	)
	tab, err := tmbp.NewTable(kind, 128, "mask")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(SkiplistWords(capacity))
	cfg := tmbp.STMConfig{Table: tab, Memory: mem, Seed: 31,
		FuzzYield: 0.2, FallbackAfter: fallbackAfter}
	log := attachLog(t, &cfg)
	rt, err := tmbp.NewSTM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSkiplist(mem, 0, capacity, 23)
	if err != nil {
		t.Fatal(err)
	}
	recordInitialWords(log, mem)

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			rng := xrand.NewWithStream(31, uint64(gid))
			for i := 0; i < writerTxns; i++ {
				j := rng.Uint64n(pairKeys)
				v := uint64(gid*1_000_000 + i)
				if err := th.Atomic(func(tx *tmbp.Tx) error {
					if _, ok := s.GetTx(tx, j); ok {
						s.DeleteTx(tx, j)
						s.DeleteTx(tx, j+pairOffset)
						return nil
					}
					if _, err := s.PutTx(tx, j, v); err != nil {
						return err
					}
					_, err := s.PutTx(tx, j+pairOffset, v)
					return err
				}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", gid, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			th := rt.NewThread()
			keys := make([]uint64, 0, 2*pairKeys)
			vals := make([]uint64, 0, 2*pairKeys)
			for i := 0; i < readerTxns; i++ {
				if err := th.Atomic(func(tx *tmbp.Tx) error {
					keys, vals = keys[:0], vals[:0]
					return s.RangeScanTx(tx, 0, 2*pairOffset, func(k, v uint64) error {
						keys = append(keys, k)
						vals = append(vals, v)
						return nil
					})
				}); err != nil {
					errs <- fmt.Errorf("reader %d: %w", gid, err)
					return
				}
				seen := map[uint64]uint64{}
				for j := 1; j < len(keys); j++ {
					if keys[j] <= keys[j-1] {
						errs <- fmt.Errorf("reader %d: scan not strictly ascending: %v", gid, keys)
						return
					}
				}
				for j, k := range keys {
					seen[k] = vals[j]
				}
				for j := uint64(0); j < pairKeys; j++ {
					lv, lok := seen[j]
					hv, hok := seen[j+pairOffset]
					if lok != hok || (lok && lv != hv) {
						errs <- fmt.Errorf("reader %d: torn pair %d: (%d,%v) vs (%d,%v) in %v",
							gid, j, lv, lok, hv, hok, keys)
						return
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
	checkOpaque(t, log)
	return rt.Stats()
}

// TestSkiplistScanHammer runs the invariant hammer on every table kind with
// FallbackAfter 1: a transaction that aborts once retries under the serial
// token, whose attempts read under read shares, so the recorded histories
// carry visible reads beside invisible ones.
func TestSkiplistScanHammer(t *testing.T) {
	var fallbacks uint64
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) { fallbacks += scanHammer(t, kind, 1).FallbackCommits })
	}
	if fallbacks == 0 {
		t.Fatal("no serial commit in the sweep: it recorded no visible reads")
	}
}

// TestSkiplistScanHammerInvisible runs it with no serial fallback:
// whole-range scans are read-only, so they commit by version validation
// racing the writers' splices.
func TestSkiplistScanHammerInvisible(t *testing.T) {
	for _, kind := range sweepKinds() {
		t.Run(kind, func(t *testing.T) {
			if st := scanHammer(t, kind, 0); st.ROCommits == 0 {
				t.Fatalf("invisible hammer committed no read-only transactions: %+v", st)
			}
		})
	}
}
