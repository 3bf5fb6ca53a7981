package otable

import (
	"testing"
	"testing/quick"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/xrand"
)

func newTagged(n uint64) *Tagged { return NewTagged(hash.NewMask(n)) }

func TestTaggedNoFalseConflicts(t *testing.T) {
	// The defining property (Section 5): aliasing blocks 3 and 67 in a
	// 64-bucket table are held by different writers simultaneously.
	tab := newTagged(64)
	if got, _, _ := tab.AcquireWriteH(1, 3, 0, NoHandle); got != Granted {
		t.Fatalf("first write: %v", got)
	}
	if got, _, _ := tab.AcquireWriteH(2, 67, 0, NoHandle); got != Granted {
		t.Fatalf("aliasing write should be granted in tagged table: %v", got)
	}
	if tab.Occupied() != 2 {
		t.Fatalf("Occupied = %d, want 2 (two held records, chained in one bucket)", tab.Occupied())
	}
}

func TestTaggedTrueConflictStillDetected(t *testing.T) {
	tab := newTagged(64)
	tab.AcquireWriteH(1, 3, 0, NoHandle)
	if got, _, _ := tab.AcquireWriteH(2, 3, 0, NoHandle); got != ConflictWriter {
		t.Fatalf("same-block write: %v, want ConflictWriter", got)
	}
	if got, _, _ := tab.AcquireReadH(2, 3); got != ConflictWriter {
		t.Fatalf("same-block read: %v, want ConflictWriter", got)
	}
}

func TestTaggedSharedReads(t *testing.T) {
	tab := newTagged(64)
	tab.AcquireReadH(1, 5)
	tab.AcquireReadH(2, 5)
	tab.AcquireReadH(3, 69) // aliases block 5's bucket
	if got, _, _ := tab.AcquireWriteH(4, 5, 0, NoHandle); got != ConflictReaders {
		t.Fatalf("write vs readers: %v", got)
	}
	// But the aliasing block 69 is independently writable... no — tx 3
	// holds a read on 69 itself, so a different tx conflicts only on 69.
	if got, _, _ := tab.AcquireWriteH(4, 133, 0, NoHandle); got != Granted {
		t.Fatalf("third aliasing block should be independent: %v", got)
	}
}

func TestTaggedUpgrade(t *testing.T) {
	tab := newTagged(64)
	_, _, h := tab.AcquireReadH(1, 9)
	if got, _, _ := tab.AcquireWriteH(1, 9, 1, h); got != Upgraded {
		t.Fatalf("upgrade: %v", got)
	}
	tab.ReleaseWriteH(1, 9, h)
	if tab.Occupied() != 0 {
		t.Fatalf("Occupied after release = %d", tab.Occupied())
	}
}

func TestTaggedUpgradeBlockedByOtherReader(t *testing.T) {
	tab := newTagged(64)
	_, _, h := tab.AcquireReadH(1, 9)
	tab.AcquireReadH(2, 9)
	if got, _, _ := tab.AcquireWriteH(1, 9, 1, h); got != ConflictReaders {
		t.Fatalf("upgrade with foreign reader: %v", got)
	}
}

func TestTaggedReacquire(t *testing.T) {
	tab := newTagged(64)
	tab.AcquireWriteH(1, 5, 0, NoHandle)
	if got, _, _ := tab.AcquireWriteH(1, 5, 0, NoHandle); got != AlreadyHeld {
		t.Fatalf("re-write: %v", got)
	}
	if got, _, _ := tab.AcquireReadH(1, 5); got != AlreadyHeld {
		t.Fatalf("read under own write: %v", got)
	}
	// Unlike tagless, an aliasing block is NOT covered by the write: it is
	// a separate record.
	if got, _, _ := tab.AcquireWriteH(1, 69, 0, NoHandle); got != Granted {
		t.Fatalf("aliasing block should need its own record: %v", got)
	}
}

func TestTaggedChainAccounting(t *testing.T) {
	tab := newTagged(8)
	// Blocks 0, 8, 16, 24 all land in bucket 0.
	var h [4]Handle
	for i, b := range []addr.Block{0, 8, 16, 24} {
		var got Outcome
		if got, _, h[i] = tab.AcquireWriteH(TxID(i+1), b, 0, NoHandle); got != Granted {
			t.Fatalf("write %d: %v", i, got)
		}
	}
	lengths := tab.ChainLengths()
	if lengths[4] != 1 {
		t.Fatalf("expected one bucket with chain length 4, got %v", lengths)
	}
	if s := tab.Stats(); s.MaxChain != 4 {
		t.Fatalf("MaxChain = %d", s.MaxChain)
	}
	// Remove the middle record and verify the chain stays intact.
	tab.ReleaseWriteH(2, 8, h[1])
	if got, _, _ := tab.AcquireReadH(5, 16); got != ConflictWriter {
		t.Fatalf("block 16 should still be write-held after unrelated removal: %v", got)
	}
	if got, _, _ := tab.AcquireWriteH(6, 8, 0, NoHandle); got != Granted {
		t.Fatalf("removed block should be reacquirable: %v", got)
	}
}

func TestTaggedReleasePanics(t *testing.T) {
	tab := newTagged(64)
	_, _, hr := tab.AcquireReadH(1, 3)
	tab.ReleaseReadH(1, 3, hr) // parks the record: no share left
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReleaseRead without a share did not panic")
			}
		}()
		tab.ReleaseReadH(1, 3, hr)
	}()
	_, _, hw := tab.AcquireWriteH(1, 4, 0, NoHandle)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReleaseWrite by non-owner did not panic")
			}
		}()
		tab.ReleaseWriteH(2, 4, hw)
	}()
}

func TestTaggedReset(t *testing.T) {
	tab := newTagged(64)
	tab.AcquireWriteH(1, 2, 0, NoHandle)
	tab.AcquireReadH(2, 3)
	tab.Reset()
	if tab.Occupied() != 0 {
		t.Fatalf("after reset: occ=%d", tab.Occupied())
	}
	if got, _, _ := tab.AcquireWriteH(3, 2, 0, NoHandle); got != Granted {
		t.Fatalf("write after reset: %v", got)
	}
}

// TestTaggedNeverFalseConflictProperty: random disjoint workloads across
// transactions never conflict in a tagged table, no matter how small the
// table (heavy aliasing).
func TestTaggedNeverFalseConflictProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		tab := newTagged(4) // brutal aliasing: 4 buckets
		const txs = 4
		fps := make([]*Footprint, txs)
		for i := range fps {
			fps[i] = NewFootprint(tab, TxID(i+1))
		}
		// Partition the block space: tx i owns blocks ≡ i (mod txs), so no
		// true conflicts exist.
		for step := 0; step < 400; step++ {
			tx := r.Intn(txs)
			b := addr.Block(r.Intn(256)*txs + tx)
			var out Outcome
			if r.Bool() {
				out = fps[tx].Read(b)
			} else {
				out = fps[tx].Write(b)
			}
			if out.Conflict() {
				return false // any conflict on disjoint data is false — forbidden
			}
		}
		for _, fp := range fps {
			fp.ReleaseAll()
		}
		return tab.Occupied() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTaggedDrainProperty mirrors the tagless drain property with shared
// blocks (true conflicts allowed, just not counted).
func TestTaggedDrainProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		tab := newTagged(16)
		const txs = 4
		fps := make([]*Footprint, txs)
		for i := range fps {
			fps[i] = NewFootprint(tab, TxID(i+1))
		}
		for step := 0; step < 300; step++ {
			tx := r.Intn(txs)
			b := addr.Block(r.Intn(64))
			if r.Bool() {
				fps[tx].Read(b)
			} else {
				fps[tx].Write(b)
			}
			if r.Intn(10) == 0 {
				fps[tx].ReleaseAll()
			}
		}
		for _, fp := range fps {
			fp.ReleaseAll()
		}
		return tab.Occupied() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTaggedSmallTableStripes(t *testing.T) {
	// Tables smaller than the stripe count must still work.
	tab := newTagged(2)
	for b := addr.Block(0); b < 20; b++ {
		if got, _, _ := tab.AcquireReadH(1, b); got != Granted {
			t.Fatalf("read %d: %v", b, got)
		}
	}
	if tab.Occupied() != 20 {
		t.Fatalf("Occupied = %d", tab.Occupied())
	}
}

func TestNewByKind(t *testing.T) {
	for _, kind := range []string{"tagless", "tagged"} {
		tab, err := New(kind, hash.NewMask(64))
		if err != nil {
			t.Fatalf("New(%q): %v", kind, err)
		}
		if tab.Kind() != kind {
			t.Fatalf("Kind = %q", tab.Kind())
		}
	}
	if _, err := New("bogus", hash.NewMask(64)); err == nil {
		t.Fatal("New(bogus) succeeded")
	}
	// The deprecated "sharded" alias builds the flat tagged table.
	tab, err := New("sharded", hash.NewMask(64))
	if err != nil {
		t.Fatalf("New(sharded): %v", err)
	}
	if _, ok := tab.(*Tagged); !ok || tab.Kind() != "tagged" {
		t.Fatalf("New(sharded) = %T with Kind %q, want *Tagged of kind tagged", tab, tab.Kind())
	}
	if kinds := Kinds(); len(kinds) != 2 || kinds[0] != "tagless" || kinds[1] != "tagged" {
		t.Fatalf("Kinds() = %v, want [tagless tagged]", kinds)
	}
}

// physChainLen counts the records physically chained in bucket idx, in any
// state — the traversal cost a walk of that bucket pays. Callers must be
// quiescent.
func physChainLen(t *Tagged, idx uint64) int {
	n := 0
	for cur := t.buckets[idx].head.Load(); linkIdx(cur) != 0; {
		r := t.rec(linkIdx(cur))
		n++
		cur = r.next.Load() &^ linkMark
	}
	return n
}

// TestTaggedReapProtectsOccupiedBuckets pins the occupancy-adaptive half of
// the reaping contract: a bucket's live records raise its condemnation
// threshold by their count, so a deep working set keeps its parked free
// records — the reuse fast path — while a cold bucket in the same table
// still reaps at the base depth, and the protection evaporates the moment
// the live records release.
func TestTaggedReapProtectsOccupiedBuckets(t *testing.T) {
	const (
		buckets = 16
		hot     = uint64(3)
		cold    = uint64(7)
		live    = 4
		stream  = 200
	)
	tab := newTagged(buckets)
	// Occupy the hot bucket: live records deepen its chain permanently and
	// raise its reap allowance from 0 to live.
	var held [live]Handle
	for i := 0; i < live; i++ {
		b := addr.Block(hot + uint64(i)*buckets)
		var out Outcome
		if out, _, held[i] = tab.AcquireWriteH(TxID(i+1), b, 0, NoHandle); out != Granted {
			t.Fatalf("live acquire %d: %v", i, out)
		}
	}
	// Stream unique tags through both buckets. The cold bucket must keep its
	// tag-streaming bound; the hot bucket is allowed — and expected — to park
	// more free records, but still boundedly many.
	maxHot, maxCold := 0, 0
	for i := 0; i < stream; i++ {
		hb := addr.Block(hot + uint64(100+i)*buckets)
		cb := addr.Block(cold + uint64(i)*buckets)
		for _, b := range []addr.Block{hb, cb} {
			out, _, h := tab.AcquireWriteH(9, b, 0, NoHandle)
			if out != Granted {
				t.Fatalf("streamed tag %d: %v", b, out)
			}
			tab.ReleaseWriteH(9, b, h)
		}
		if n := physChainLen(tab, hot); n > maxHot {
			maxHot = n
		}
		if n := physChainLen(tab, cold); n > maxCold {
			maxCold = n
		}
	}
	if maxCold > reapDepth+2 {
		t.Fatalf("cold chain reached %d records, want <= reapDepth+2 = %d: another bucket's occupancy leaked into the allowance",
			maxCold, reapDepth+2)
	}
	// The hot bound scales with occupancy: live held records, up to
	// reapDepth+live parked frees below the condemnation threshold, the
	// freshly inserted record, and one record of unlink slack.
	if maxHot > reapDepth+2*live+2 {
		t.Fatalf("hot chain reached %d records, want <= reapDepth+2*live+2 = %d",
			maxHot, reapDepth+2*live+2)
	}
	// The protection must have done something: the hot bucket retains more
	// parked free records than base-depth reaping would ever allow.
	if frees := physChainLen(tab, hot) - live; frees <= reapDepth {
		t.Fatalf("hot bucket parks only %d free records despite %d live, want > reapDepth = %d",
			frees, live, reapDepth)
	}
	// Release the working set: the allowance drops to zero, and the next
	// walks condemn the now-unprotected surplus back to the base bound.
	for i := 0; i < live; i++ {
		tab.ReleaseWriteH(TxID(i+1), addr.Block(hot+uint64(i)*buckets), held[i])
	}
	for i := 0; i < 5; i++ {
		b := addr.Block(hot + uint64(1000+i)*buckets)
		out, _, h := tab.AcquireWriteH(9, b, 0, NoHandle)
		if out != Granted {
			t.Fatalf("post-release tag %d: %v", i, out)
		}
		tab.ReleaseWriteH(9, b, h)
	}
	if n := physChainLen(tab, hot); n > reapDepth+2 {
		t.Fatalf("hot chain still %d records after its live set released, want <= %d",
			n, reapDepth+2)
	}
	if n := tab.Occupied(); n != 0 {
		t.Fatalf("held records = %d, want 0", n)
	}
}

// TestTagStreamingBoundsChainDepth is the regression test for the reaping
// contract: a workload that streams unique tags through one bucket —
// acquire, release, never touch the tag again — parks a free record per
// tag, and without reaping the chain would grow without bound, degrading
// every later walk of the bucket. The walk condemns and unlinks free
// records past reapDepth, so the physical chain must stay within
// reapDepth + 1 records (the freshly inserted record plus the parked
// fast-path window) at every step of the stream, and a subsequent miss
// walk must traverse only that bounded chain.
func TestTagStreamingBoundsChainDepth(t *testing.T) {
	const (
		buckets = 16
		bucket  = uint64(3)
		stream  = 2000
	)
	tab := newTagged(buckets)
	maxPhys := 0
	for i := 0; i < stream; i++ {
		b := addr.Block(bucket + uint64(i)*buckets) // unique tag, always bucket 3
		out, _, h := tab.AcquireWriteH(1, b, 0, NoHandle)
		if out != Granted {
			t.Fatalf("streamed tag %d: AcquireWriteH = %v", i, out)
		}
		tab.ReleaseWriteH(1, b, h)
		if n := physChainLen(tab, bucket); n > maxPhys {
			maxPhys = n
		}
	}
	if maxPhys > reapDepth+2 {
		t.Fatalf("physical chain reached %d records under tag streaming, want <= reapDepth+2 = %d",
			maxPhys, reapDepth+2)
	}
	// One more miss-walk traverses only the bounded chain: its ChainFollows
	// delta is the physical records it passed beyond the head.
	pre := tab.Stats().ChainFollows
	b := addr.Block(bucket + uint64(stream)*buckets)
	out, _, h := tab.AcquireWriteH(1, b, 0, NoHandle)
	if out != Granted {
		t.Fatalf("post-stream AcquireWriteH = %v", out)
	}
	tab.ReleaseWriteH(1, b, h)
	if delta := tab.Stats().ChainFollows - pre; delta > uint64(reapDepth)+2 {
		t.Fatalf("post-stream walk traversed %d records, want <= %d", delta, reapDepth+2)
	}
	if n := tab.Occupied(); n != 0 {
		t.Fatalf("held records after stream = %d, want 0", n)
	}
}
