package otable

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// TestConflictInfoRoundTrip checks the packed representation: a writer
// conflict round-trips the TxID (including the valid zero ID), a reader
// conflict round-trips the foreign-sharer count, and each accessor rejects
// the other shape and the zero value.
func TestConflictInfoRoundTrip(t *testing.T) {
	if NoConflict.Valid() {
		t.Fatal("NoConflict reports Valid")
	}
	if _, ok := NoConflict.Writer(); ok {
		t.Fatal("NoConflict reports a writer")
	}
	if _, ok := NoConflict.Readers(); ok {
		t.Fatal("NoConflict reports readers")
	}
	for _, tx := range []TxID{0, 1, 7, 1<<32 - 1} {
		ci := WriterConflict(tx)
		if !ci.Valid() {
			t.Fatalf("WriterConflict(%d) not Valid", tx)
		}
		got, ok := ci.Writer()
		if !ok || got != tx {
			t.Fatalf("WriterConflict(%d).Writer() = %d, %v", tx, got, ok)
		}
		if _, ok := ci.Readers(); ok {
			t.Fatalf("WriterConflict(%d) reports readers", tx)
		}
	}
	for _, n := range []uint32{1, 2, 255, 1<<32 - 1} {
		ci := ReadersConflict(n)
		if !ci.Valid() {
			t.Fatalf("ReadersConflict(%d) not Valid", n)
		}
		got, ok := ci.Readers()
		if !ok || got != n {
			t.Fatalf("ReadersConflict(%d).Readers() = %d, %v", n, got, ok)
		}
		if _, ok := ci.Writer(); ok {
			t.Fatalf("ReadersConflict(%d) reports a writer", n)
		}
	}
	for _, tc := range []struct {
		ci   ConflictInfo
		want string
	}{
		{NoConflict, "no opponent"},
		{WriterConflict(9), "writer tx 9"},
		{ReadersConflict(3), "3 reader(s)"},
	} {
		if got := tc.ci.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// FuzzConflictInfoRoundTrip fuzzes the pack/unpack pair: for any payload,
// exactly one accessor matches the constructor used and returns the payload
// unchanged, and the info is always Valid.
func FuzzConflictInfoRoundTrip(f *testing.F) {
	f.Add(true, uint32(0))
	f.Add(true, uint32(1<<32-1))
	f.Add(false, uint32(1))
	f.Add(false, uint32(1<<31))
	f.Fuzz(func(t *testing.T, writer bool, payload uint32) {
		var ci ConflictInfo
		if writer {
			ci = WriterConflict(TxID(payload))
		} else {
			ci = ReadersConflict(payload)
		}
		if !ci.Valid() {
			t.Fatalf("packed conflict (writer=%v, %d) not Valid", writer, payload)
		}
		w, wok := ci.Writer()
		r, rok := ci.Readers()
		if wok == rok {
			t.Fatalf("accessors agree (writer=%v readers=%v) for writer=%v", wok, rok, writer)
		}
		if writer && (!wok || uint32(w) != payload) {
			t.Fatalf("Writer() = %d, %v, want %d", w, wok, payload)
		}
		if !writer && (!rok || r != payload) {
			t.Fatalf("Readers() = %d, %v, want %d", r, rok, payload)
		}
	})
}

// TestAcquireReportsOpponent drives every table organization through the
// four denial shapes single-threaded and checks the reported opponent each
// time: the owning writer's identity for writer conflicts (on both the
// read and write acquire paths), and the foreign sharer count — the
// caller's own shares subtracted — for reader conflicts, including the
// upgrade-by-handle path.
func TestAcquireReportsOpponent(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			const b = addr.Block(3)
			const owner = TxID(7)

			// Writer conflicts name the owner on every acquire path.
			out, ci, hw := tab.AcquireWriteH(owner, b, 0, NoHandle)
			if out != Granted || ci != NoConflict {
				t.Fatalf("setup AcquireWriteH = %v, %v", out, ci)
			}
			out, ci, _ = tab.AcquireWriteH(2, b, 0, NoHandle)
			if w, ok := ci.Writer(); out != ConflictWriter || !ok || w != owner {
				t.Fatalf("AcquireWriteH conflict = %v names %v, want writer tx %d", out, ci, owner)
			}
			if out, ci, h := tab.AcquireReadH(2, b); out != ConflictWriter || h != NoHandle {
				t.Fatalf("AcquireReadH vs writer = %v, %v, %v", out, ci, h)
			} else if w, ok := ci.Writer(); !ok || w != owner {
				t.Fatalf("AcquireReadH conflict names %v, want writer tx %d", ci, owner)
			}
			tab.ReleaseWriteH(owner, b, hw)

			// Reader conflicts report the foreign share count.
			var h [3]Handle
			for i := range h {
				if out, ci, h[i] = tab.AcquireReadH(TxID(i+1), b); out != Granted || ci != NoConflict {
					t.Fatalf("reader setup = %v, %v", out, ci)
				}
			}
			out, ci, _ = tab.AcquireWriteH(4, b, 0, NoHandle)
			if n, ok := ci.Readers(); out != ConflictReaders || !ok || n != 3 {
				t.Fatalf("AcquireWriteH vs 3 readers = %v, %v, want 3 foreign readers", out, ci)
			}
			// An upgrading reader sees only the two foreign shares.
			out, ci, _ = tab.AcquireWriteH(2, b, 1, h[1])
			if n, ok := ci.Readers(); out != ConflictReaders || !ok || n != 2 {
				t.Fatalf("upgrade vs 2 foreign readers = %v, %v, want 2", out, ci)
			}
			for i := range h {
				tab.ReleaseReadH(TxID(i+1), b, h[i])
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
		})
	}
}

// TestConflictTargetNeverStale hammers one hot block with a rotating cast
// of writers while probers continuously attempt conflicting acquires: every
// reported writer must be a member of the writer set, never a prober and
// never an ID from a previous incarnation of a recycled record. On the
// tagged tables the reported owner comes from a generation-validated state
// word — this is the concurrent proof that the validation holds under
// release/reuse churn (like stale handles, a stale owner must be
// impossible, not just unlikely).
func TestConflictTargetNeverStale(t *testing.T) {
	const (
		writers = 4
		probers = 3
		iters   = 5000
		hot     = addr.Block(11)
	)
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			var bogus atomic.Int64
			var conflictsSeen atomic.Int64
			var wg sync.WaitGroup
			// Hold the block as writer 1 until a prober has met it, so that
			// every run verifies a conflict whatever the scheduler does.
			out, _, held := tab.AcquireWriteH(1, hot, 0, NoHandle)
			if out != Granted {
				t.Fatalf("initial hold: %v", out)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					tx := TxID(id + 1) // writer IDs: 1..writers
					for i := 0; i < iters; i++ {
						if out, _, h := tab.AcquireWriteH(tx, hot, 0, NoHandle); out == Granted {
							tab.ReleaseWriteH(tx, hot, h)
						}
					}
				}(w)
			}
			for p := 0; p < probers; p++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					tx := TxID(100 + id) // disjoint from the writer set
					for i := 0; i < iters; i++ {
						out, ci, h := tab.AcquireReadH(tx, hot)
						if out == Granted {
							tab.ReleaseReadH(tx, hot, h)
							continue
						}
						conflictsSeen.Add(1)
						w, ok := ci.Writer()
						if !ok || w < 1 || w > writers {
							bogus.Add(1)
						}
					}
				}(p)
			}
			for conflictsSeen.Load() == 0 {
				runtime.Gosched()
			}
			tab.ReleaseWriteH(1, hot, held)
			wg.Wait()
			if n := bogus.Load(); n != 0 {
				t.Fatalf("%d conflicts reported an opponent outside the writer set", n)
			}
			if occ := tab.Occupied(); occ != 0 {
				t.Fatalf("occupancy after drain = %d", occ)
			}
		})
	}
}
