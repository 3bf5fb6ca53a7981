package tmds

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tmbp"
	"tmbp/internal/xrand"
)

// phantomWorld builds a recorded skiplist world for the phantom schedules:
// a small aliasing-prone table, block granularity, and the keys
// 10/20/30/40/50 pre-inserted.
func phantomWorld(t *testing.T, kind string, invisible bool) (*tmbp.STM, *Skiplist, func()) {
	t.Helper()
	const capacity = 64
	tab, err := tmbp.NewTable(kind, 256, "mask")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(SkiplistWords(capacity))
	cfg := tmbp.STMConfig{Table: tab, Memory: mem, Seed: 21, InvisibleReaders: invisible}
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

// TestSkiplistPhantomScanSchedule is the deterministic phantom-conflict
// schedule under the acquiring protocol: reader A pauses mid-scan on its
// first visited node, writer B tries to insert key 15 into the scanned
// range. A's scan read-shares the header block and node 10's block — the
// very words B's splice must write — so B is denied and aborts at least
// once, and A's scan completes on the pre-insert snapshot: never a torn
// prefix, never a phantom. After A commits, B's insert lands and a rescan
// observes it. The recorded history must verify opaque (and replays through
// `tmbp check` in CI).
func TestSkiplistPhantomScanSchedule(t *testing.T) {
	for _, kind := range tmbp.TableKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, s, verify := phantomWorld(t, kind, false)
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

			writerDone := make(chan error, 1)
			go func() {
				wth := rt.NewThread()
				_, err := s.Put(wth, 15, 150)
				writerDone <- err
			}()
			// The writer must conflict with the paused scan: wait until its
			// denied acquire has aborted at least one attempt.
			deadline := time.Now().Add(10 * time.Second)
			for rt.Stats().Aborts == 0 {
				if time.Now().After(deadline) {
					t.Fatal("writer never conflicted with the paused scan")
				}
				runtime.Gosched()
			}
			close(resume)
			if err := <-readerDone; err != nil {
				t.Fatalf("reader: %v", err)
			}
			// The paused scan serialized before the insert: exactly the
			// pre-insert range, no torn prefix, no phantom 15.
			want := []uint64{10, 20, 30, 40, 50}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("paused scan saw %v, want pre-insert %v", got, want)
			}
			if err := <-writerDone; err != nil {
				t.Fatalf("writer: %v", err)
			}
			// A fresh scan serializes after the insert.
			got = got[:0]
			if err := reader.Atomic(func(tx *tmbp.Tx) error {
				got = got[:0]
				return s.RangeScanTx(tx, 10, 50, func(k, _ uint64) error {
					got = append(got, k)
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
			want = []uint64{10, 15, 20, 30, 40, 50}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("rescan saw %v, want post-insert %v", got, want)
			}
			verify()
		})
	}
}

// TestSkiplistPhantomInvisibleScan is the same schedule under the
// invisible-reader fast path, where the outcome flips deterministically: an
// invisible scan holds no table state, so the writer commits while the
// reader is paused — and the reader's next version validation must catch
// it, abort the attempt, and re-run the scan on the post-insert snapshot.
// Either serialization is legal; a torn prefix (15 missing but later nodes
// re-read inconsistently) is not, and the recorded history proves it.
func TestSkiplistPhantomInvisibleScan(t *testing.T) {
	for _, kind := range tmbp.TableKinds() {
		t.Run(kind, func(t *testing.T) {
			rt, s, verify := phantomWorld(t, kind, true)
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
// recording; the history must verify opaque.
func scanHammer(t *testing.T, kind string, invisible bool) {
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
		FuzzYield: 0.2, InvisibleReaders: invisible}
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
	if invisible {
		if st := rt.Stats(); st.ROCommits == 0 {
			t.Fatalf("invisible hammer committed no read-only transactions: %+v", st)
		}
	}
	checkOpaque(t, log)
}

// TestSkiplistScanHammer runs the invariant hammer on every table kind
// under the acquiring protocol.
func TestSkiplistScanHammer(t *testing.T) {
	for _, kind := range tmbp.TableKinds() {
		t.Run(kind, func(t *testing.T) { scanHammer(t, kind, false) })
	}
}

// TestSkiplistScanHammerInvisible runs it with the invisible-reader fast
// path: whole-range scans are read-only, so they commit by version
// validation racing the writers' splices.
func TestSkiplistScanHammerInvisible(t *testing.T) {
	for _, kind := range tmbp.TableKinds() {
		t.Run(kind, func(t *testing.T) { scanHammer(t, kind, true) })
	}
}
