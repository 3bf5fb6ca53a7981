package tmds

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"tmbp"
	"tmbp/internal/xrand"
)

// newSkiplist builds a runtime plus a skiplist of the given capacity.
func newSkiplist(t testing.TB, table string, capacity int, seed uint64) (*tmbp.STM, *Skiplist) {
	t.Helper()
	rt, mem := newWorld(t, table, 1024, SkiplistWords(capacity))
	s, err := NewSkiplist(mem, 0, capacity, seed)
	if err != nil {
		t.Fatal(err)
	}
	return rt, s
}

func TestSkiplistBasics(t *testing.T) {
	rt, s := newSkiplist(t, "tagged", 64, 7)
	th := rt.NewThread()
	if _, _, ok, _ := s.Min(th); ok {
		t.Fatal("Min of empty reported ok")
	}
	if _, _, ok, _ := s.Max(th); ok {
		t.Fatal("Max of empty reported ok")
	}
	for _, k := range []uint64{50, 10, 90, 30, 70} {
		added, err := s.Put(th, k, k*100)
		if err != nil || !added {
			t.Fatalf("Put(%d) = %v, %v", k, added, err)
		}
	}
	if added, _ := s.Put(th, 30, 31); added {
		t.Fatal("duplicate Put reported added")
	}
	if v, ok, _ := s.Get(th, 30); !ok || v != 31 {
		t.Fatalf("Get(30) = (%d, %v) after update, want (31, true)", v, ok)
	}
	if _, ok, _ := s.Get(th, 40); ok {
		t.Fatal("Get of absent key reported ok")
	}
	if n, _ := s.Len(th); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	if k, v, ok, _ := s.Min(th); !ok || k != 10 || v != 1000 {
		t.Fatalf("Min = (%d, %d, %v), want (10, 1000, true)", k, v, ok)
	}
	if k, v, ok, _ := s.Max(th); !ok || k != 90 || v != 9000 {
		t.Fatalf("Max = (%d, %d, %v), want (90, 9000, true)", k, v, ok)
	}
	if removed, _ := s.Delete(th, 40); removed {
		t.Fatal("Delete of absent key reported removed")
	}
	if removed, _ := s.Delete(th, 10); !removed {
		t.Fatal("Delete of present key reported absent")
	}
	if k, _, ok, _ := s.Min(th); !ok || k != 30 {
		t.Fatalf("Min after delete = %d, want 30", k)
	}
	if n, _ := s.Len(th); n != 4 {
		t.Fatalf("Len after delete = %d, want 4", n)
	}
}

func TestSkiplistRangeScanSemantics(t *testing.T) {
	rt, s := newSkiplist(t, "tagged", 64, 3)
	th := rt.NewThread()
	for k := uint64(0); k < 50; k += 5 {
		if _, err := s.Put(th, k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(lo, hi uint64) (keys []uint64) {
		err := th.Atomic(func(tx *tmbp.Tx) error {
			keys = keys[:0]
			return s.RangeScanTx(tx, lo, hi, func(k, v uint64) error {
				if v != k+1 {
					t.Fatalf("scan saw (%d, %d), want value %d", k, v, k+1)
				}
				keys = append(keys, k)
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	check := func(got []uint64, want ...uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("scan = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("scan = %v, want %v", got, want)
			}
		}
	}
	check(scan(10, 25), 10, 15, 20, 25) // inclusive bounds
	check(scan(11, 14))                 // empty interior range
	check(scan(30, 10))                 // hi < lo
	check(scan(0, ^uint64(0)), 0, 5, 10, 15, 20, 25, 30, 35, 40, 45)
	check(scan(44, 100), 45) // hi past the last key

	// fn errors stop the scan and propagate; from an Atomic body they
	// abort the transaction.
	boom := errors.New("stop")
	seen := 0
	err := th.Atomic(func(tx *tmbp.Tx) error {
		return s.RangeScanTx(tx, 0, 100, func(_, _ uint64) error {
			seen++
			if seen == 3 {
				return boom
			}
			return nil
		})
	})
	if !errors.Is(err, boom) || seen != 3 {
		t.Fatalf("fn error: err=%v seen=%d, want boom after 3", err, seen)
	}
}

// TestSkiplistCapacityAndReuse pins the free-list contract: ErrFull exactly
// at capacity, and deleted nodes are reusable.
func TestSkiplistCapacityAndReuse(t *testing.T) {
	const capacity = 8
	rt, s := newSkiplist(t, "tagged", capacity, 1)
	th := rt.NewThread()
	for k := uint64(0); k < capacity; k++ {
		if _, err := s.Put(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put(th, 100, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("Put beyond capacity = %v, want ErrFull", err)
	}
	// Updates of present keys still succeed at capacity.
	if added, err := s.Put(th, 3, 33); err != nil || added {
		t.Fatalf("update at capacity = (%v, %v)", added, err)
	}
	for pass := 0; pass < 3; pass++ { // delete/reinsert churns the free list
		if removed, _ := s.Delete(th, 5); !removed {
			t.Fatal("delete failed")
		}
		if added, err := s.Put(th, 5, uint64(pass)); err != nil || !added {
			t.Fatalf("reinsert = (%v, %v)", added, err)
		}
	}
	if n, _ := s.Len(th); n != capacity {
		t.Fatalf("Len = %d after churn, want %d", n, capacity)
	}
}

// TestSkiplistDeterministicLayout pins the determinism contract: same
// capacity and seed give identical tower heights, and replaying the same
// operation sequence yields bit-identical STM memory.
func TestSkiplistDeterministicLayout(t *testing.T) {
	const capacity, seed = 128, 99
	build := func() (*Skiplist, *tmbp.Memory) {
		rt, mem := newWorld(t, "tagged", 1024, SkiplistWords(capacity))
		s, err := NewSkiplist(mem, 0, capacity, seed)
		if err != nil {
			t.Fatal(err)
		}
		th := rt.NewThread()
		rng := xrand.New(5)
		for i := 0; i < 300; i++ {
			k := rng.Uint64n(200)
			switch rng.Intn(3) {
			case 0, 1:
				if _, err := s.Put(th, k, rng.Uint64()); err != nil && !errors.Is(err, ErrFull) {
					t.Fatal(err)
				}
			case 2:
				if _, err := s.Delete(th, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		return s, mem
	}
	a, amem := build()
	b, bmem := build()
	for i := range a.heights {
		if a.heights[i] != b.heights[i] {
			t.Fatalf("slot %d heights differ: %d vs %d", i, a.heights[i], b.heights[i])
		}
	}
	if amem.Words() != bmem.Words() {
		t.Fatal("memory sizes differ")
	}
	for w := 0; w < amem.Words(); w++ {
		av := amem.LoadDirect(amem.WordAddr(w))
		bv := bmem.LoadDirect(bmem.WordAddr(w))
		if av != bv {
			t.Fatalf("word %d differs after identical replay: %d vs %d", w, av, bv)
		}
	}
	// A different seed must (for this capacity) give a different layout.
	c, err := NewSkiplist(tmbp.NewMemory(SkiplistWords(capacity)), 0, capacity, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.heights {
		if a.heights[i] != c.heights[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical tower layouts")
	}
}

// TestSkiplistRejectsBadConfig pins the constructor's error contract.
func TestSkiplistRejectsBadConfig(t *testing.T) {
	mem := tmbp.NewMemory(64)
	if _, err := NewSkiplist(mem, 0, 0, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewSkiplist(mem, 0, -1, 1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewSkiplist(mem, 0, 1024, 1); err == nil {
		t.Error("construction in an undersized region accepted")
	}
	if _, err := NewSkiplist(mem, 60, 1, 1); err == nil {
		t.Error("region overrunning the memory end accepted")
	}
}

// TestSkiplistOracleSweep is the differential oracle: the skiplist and a Go
// map reference driven through identical seeded op sequences — Put, Get,
// Delete, Min, Max, Len, and RangeScan with random bounds — across every
// table kind × table size, asserting identical results op by op and
// identical final contents. The sweep is the ordered-map analogue of the
// kinds × layouts unified-log oracle.
func TestSkiplistOracleSweep(t *testing.T) {
	combo := 0
	for _, kind := range sweepKinds() {
		for _, gr := range oracleTables {
			combo++
			seed := uint64(combo)
			t.Run(fmt.Sprintf("%s/%s/backoff", kind, gr.name), func(t *testing.T) {
				t.Parallel()
				runSkiplistOracle(t, kind, gr.entries, 0, seed)
			})
		}
	}
}

// TestSkiplistOracleUnaligned runs the oracle on skiplists whose nodes do not
// start a block: then a node's first block holds fewer than its key, value
// and six links, and the reads of a visit stop at the block's end. From
// baseWord 6 the links start in the next block, and from 7 the value too.
func TestSkiplistOracleUnaligned(t *testing.T) {
	for _, kind := range tmbp.TableKinds() {
		for _, gr := range oracleTables {
			for _, base := range []int{3, 6, 7} {
				t.Run(fmt.Sprintf("%s/%s/base%d", kind, gr.name, base), func(t *testing.T) {
					t.Parallel()
					runSkiplistOracle(t, kind, gr.entries, base, uint64(base))
				})
			}
		}
	}
}

// oracleTables are the table sizes the skiplist oracles sweep. The skiplist
// spans about 200 blocks: the "block" table gives each its own entry, and
// the "word" one makes about three share each tagless entry, so writes
// cover aliasing blocks through one hold and reads pin under it.
var oracleTables = []struct {
	name    string
	entries uint64
}{
	{"block", 512},
	{"word", 64},
}

// runSkiplistOracle drives one oracle run over a skiplist carved out of
// memory at baseWord.
func runSkiplistOracle(t *testing.T, kind string, entries uint64, baseWord int, seed uint64) {
	const capacity = 96
	tab, err := tmbp.NewTable(kind, entries, "mask")
	if err != nil {
		t.Fatal(err)
	}
	mem := tmbp.NewMemory(baseWord + SkiplistWords(capacity))
	rt, err := tmbp.NewSTM(tmbp.STMConfig{Table: tab, Memory: mem, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSkiplist(mem, baseWord, capacity, seed)
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	ref := map[uint64]uint64{}
	refScan := func(lo, hi uint64) []uint64 {
		var ks []uint64
		for k := range ref {
			if k >= lo && k <= hi {
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		return ks
	}
	rng := xrand.NewWithStream(seed, 12345)
	var scanned []uint64
	for i := 0; i < 600; i++ {
		k := rng.Uint64n(capacity) // keys < capacity: ErrFull unreachable
		switch rng.Intn(8) {
		case 0, 1, 2:
			v := rng.Uint64()
			added, err := s.Put(th, k, v)
			if err != nil {
				t.Fatal(err)
			}
			_, present := ref[k]
			if added == present {
				t.Fatalf("op %d: Put(%d) added=%v, oracle present=%v", i, k, added, present)
			}
			ref[k] = v
		case 3:
			v, ok, err := s.Get(th, k)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := ref[k]
			if ok != wantOK || (ok && v != want) {
				t.Fatalf("op %d: Get(%d) = (%d, %v), oracle (%d, %v)", i, k, v, ok, want, wantOK)
			}
		case 4:
			removed, err := s.Delete(th, k)
			if err != nil {
				t.Fatal(err)
			}
			_, present := ref[k]
			if removed != present {
				t.Fatalf("op %d: Delete(%d) removed=%v, oracle present=%v", i, k, removed, present)
			}
			delete(ref, k)
		case 5:
			lo, hi := rng.Uint64n(capacity+10), rng.Uint64n(capacity+10)
			err := th.Atomic(func(tx *tmbp.Tx) error {
				scanned = scanned[:0]
				return s.RangeScanTx(tx, lo, hi, func(k, v uint64) error {
					if ref[k] != v {
						t.Fatalf("op %d: scan saw (%d, %d), oracle value %d", i, k, v, ref[k])
					}
					scanned = append(scanned, k)
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			want := refScan(lo, hi)
			if len(scanned) != len(want) {
				t.Fatalf("op %d: scan [%d, %d] = %v, oracle %v", i, lo, hi, scanned, want)
			}
			for j := range want {
				if scanned[j] != want[j] {
					t.Fatalf("op %d: scan [%d, %d] = %v, oracle %v", i, lo, hi, scanned, want)
				}
			}
		case 6:
			mink, _, ok, err := s.Min(th)
			if err != nil {
				t.Fatal(err)
			}
			want := refScan(0, ^uint64(0))
			if ok != (len(want) > 0) || (ok && mink != want[0]) {
				t.Fatalf("op %d: Min = (%d, %v), oracle %v", i, mink, ok, want)
			}
		case 7:
			maxk, _, ok, err := s.Max(th)
			if err != nil {
				t.Fatal(err)
			}
			want := refScan(0, ^uint64(0))
			if ok != (len(want) > 0) || (ok && maxk != want[len(want)-1]) {
				t.Fatalf("op %d: Max = (%d, %v), oracle %v", i, maxk, ok, want)
			}
		}
	}
	// Final contents: one full scan equals the sorted oracle.
	var finalKeys []uint64
	err = th.Atomic(func(tx *tmbp.Tx) error {
		finalKeys = finalKeys[:0]
		return s.RangeScanTx(tx, 0, ^uint64(0), func(k, v uint64) error {
			if ref[k] != v {
				t.Fatalf("final scan saw (%d, %d), oracle value %d", k, v, ref[k])
			}
			finalKeys = append(finalKeys, k)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := refScan(0, ^uint64(0))
	if len(finalKeys) != len(want) {
		t.Fatalf("final contents %v, oracle %v", finalKeys, want)
	}
	for j := range want {
		if finalKeys[j] != want[j] {
			t.Fatalf("final contents %v, oracle %v", finalKeys, want)
		}
	}
	if n, _ := s.Len(th); n != len(ref) {
		t.Fatalf("final Len = %d, oracle %d", n, len(ref))
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("ownership table still holds %d entries after quiescence", occ)
	}
}

// refSeek is the descent as it read before visits: one Read per key and per
// link, straight from the layout.
func refSeek(s *Skiplist, tx *tmbp.Tx, k uint64) uint64 {
	x := uint64(0)
	for l := s.levels - 1; l >= 0; l-- {
		for {
			n := tx.Read(s.nextAddr(x, l))
			if n == 0 || tx.Read(s.keyAddr(n)) >= k {
				break
			}
			x = n
		}
	}
	return tx.Read(s.nextAddr(x, 0))
}

// TestSkiplistVisitFootprint pins what visits may change: nothing but the
// number of access-set probes. GetTx and RangeScanTx must return what the
// per-word descent and walk (refSeek) find, over exactly the same blocks —
// the footprint at block granularity is the conflict footprint — whether or
// not the nodes start a block.
func TestSkiplistVisitFootprint(t *testing.T) {
	for _, base := range []int{0, 3, 6, 7} {
		t.Run(fmt.Sprintf("base%d", base), func(t *testing.T) {
			const capacity = 512
			rt, mem := newWorld(t, "tagged", 1024, base+SkiplistWords(capacity))
			s, err := NewSkiplist(mem, base, capacity, 5)
			if err != nil {
				t.Fatal(err)
			}
			th := rt.NewThread()
			rng := xrand.NewWithStream(5, 1)
			for i := 0; i < capacity/2; i++ {
				if _, err := s.Put(th, rng.Uint64n(2*capacity), uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			footprint := func(fn func(tx *tmbp.Tx) uint64) (r uint64, blocks int) {
				if err := th.Atomic(func(tx *tmbp.Tx) error {
					r, blocks = fn(tx), tx.FootprintBlocks()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return r, blocks
			}
			for i := 0; i < 200; i++ {
				k := rng.Uint64n(2*capacity + 2)
				v, fp := footprint(func(tx *tmbp.Tx) uint64 {
					v, ok := s.GetTx(tx, k)
					if !ok {
						return ^uint64(0)
					}
					return v
				})
				refV, refFP := footprint(func(tx *tmbp.Tx) uint64 {
					cur := refSeek(s, tx, k)
					if cur == 0 || tx.Read(s.keyAddr(cur)) != k {
						return ^uint64(0)
					}
					return tx.Read(s.valAddr(cur))
				})
				if v != refV || fp != refFP {
					t.Fatalf("GetTx(%d) = %#x over %d blocks, per-word descent %#x over %d", k, v, fp, refV, refFP)
				}
				hi := k + rng.Uint64n(64)
				sum, fp := footprint(func(tx *tmbp.Tx) (sum uint64) {
					_ = s.RangeScanTx(tx, k, hi, func(k, v uint64) error { sum = sum*31 + k ^ v; return nil })
					return sum
				})
				refSum, refFP := footprint(func(tx *tmbp.Tx) (sum uint64) {
					for cur := refSeek(s, tx, k); cur != 0; cur = tx.Read(s.nextAddr(cur, 0)) {
						ck := tx.Read(s.keyAddr(cur))
						if ck > hi {
							break
						}
						sum = sum*31 + ck ^ tx.Read(s.valAddr(cur))
					}
					return sum
				})
				if sum != refSum || fp != refFP {
					t.Fatalf("RangeScanTx(%d, %d) = %#x over %d blocks, per-word walk %#x over %d", k, hi, sum, fp, refSum, refFP)
				}
			}
		})
	}
}
