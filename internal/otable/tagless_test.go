package otable

import (
	"testing"
	"testing/quick"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/xrand"
)

func newTagless(n uint64) *Tagless { return NewTagless(hash.NewMask(n)) }

func TestTaglessReadThenRead(t *testing.T) {
	tab := newTagless(64)
	if got, _, _ := tab.AcquireReadH(1, 10); got != Granted {
		t.Fatalf("first read: %v", got)
	}
	if got, _, _ := tab.AcquireReadH(2, 10); got != Granted {
		t.Fatalf("second reader: %v", got)
	}
	mode, count := tab.EntryState(10)
	if mode != Read || count != 2 {
		t.Fatalf("entry = %v/%d, want Read/2", mode, count)
	}
	if tab.Occupied() != 1 {
		t.Fatalf("Occupied = %d", tab.Occupied())
	}
}

func TestTaglessWriteConflictsWithWrite(t *testing.T) {
	tab := newTagless(64)
	if got, _, _ := tab.AcquireWriteH(1, 5, 0, NoHandle); got != Granted {
		t.Fatalf("first write: %v", got)
	}
	if got, _, _ := tab.AcquireWriteH(2, 5, 0, NoHandle); got != ConflictWriter {
		t.Fatalf("second writer: %v, want ConflictWriter", got)
	}
	if got, _, _ := tab.AcquireReadH(2, 5); got != ConflictWriter {
		t.Fatalf("reader vs writer: %v, want ConflictWriter", got)
	}
}

func TestTaglessFalseConflictByConstruction(t *testing.T) {
	// Blocks 3 and 67 alias in a 64-entry mask table. Distinct data, same
	// entry: the tagless table must (falsely) report a conflict.
	tab := newTagless(64)
	if got, _, _ := tab.AcquireWriteH(1, 3, 0, NoHandle); got != Granted {
		t.Fatalf("write: %v", got)
	}
	if got, _, _ := tab.AcquireWriteH(2, 67, 0, NoHandle); got != ConflictWriter {
		t.Fatalf("aliasing write: %v, want ConflictWriter (the false conflict)", got)
	}
}

func TestTaglessWriterReacquires(t *testing.T) {
	tab := newTagless(64)
	tab.AcquireWriteH(1, 5, 0, NoHandle)
	if got, _, _ := tab.AcquireWriteH(1, 5, 0, NoHandle); got != AlreadyHeld {
		t.Fatalf("re-write: %v", got)
	}
	if got, _, _ := tab.AcquireReadH(1, 5); got != AlreadyHeld {
		t.Fatalf("read under own write: %v", got)
	}
	// An aliasing block of the same transaction is also covered (entry
	// granularity: "exclusive access to both blocks", Figure 1).
	if got, _, _ := tab.AcquireWriteH(1, 69, 0, NoHandle); got != AlreadyHeld {
		t.Fatalf("aliasing own write: %v", got)
	}
}

func TestTaglessUpgrade(t *testing.T) {
	tab := newTagless(64)
	_, _, h := tab.AcquireReadH(1, 9)
	if got, _, _ := tab.AcquireWriteH(1, 9, 1, h); got != Upgraded {
		t.Fatalf("upgrade: %v", got)
	}
	mode, owner := tab.EntryState(9)
	if mode != Write || TxID(owner) != 1 {
		t.Fatalf("after upgrade: %v/%d", mode, owner)
	}
	// After an upgrade the transaction owes exactly one write release.
	tab.ReleaseWriteH(1, 9, h)
	if tab.Occupied() != 0 {
		t.Fatalf("Occupied after release = %d", tab.Occupied())
	}
}

func TestTaglessUpgradeBlockedByOtherReader(t *testing.T) {
	tab := newTagless(64)
	_, _, h := tab.AcquireReadH(1, 9)
	tab.AcquireReadH(2, 9)
	if got, _, _ := tab.AcquireWriteH(1, 9, 1, h); got != ConflictReaders {
		t.Fatalf("upgrade with foreign reader: %v, want ConflictReaders", got)
	}
}

func TestTaglessReleaseRestoresFree(t *testing.T) {
	tab := newTagless(64)
	_, _, h1 := tab.AcquireReadH(1, 7)
	_, _, h2 := tab.AcquireReadH(2, 7)
	tab.ReleaseReadH(1, 7, h1)
	mode, count := tab.EntryState(7)
	if mode != Read || count != 1 {
		t.Fatalf("after one release: %v/%d", mode, count)
	}
	tab.ReleaseReadH(2, 7, h2)
	mode, _ = tab.EntryState(7)
	if mode != Free {
		t.Fatalf("after all releases: %v", mode)
	}
	if tab.Occupied() != 0 {
		t.Fatalf("Occupied = %d", tab.Occupied())
	}
}

// TestTaglessReleasePanicsOnBadState: a release, or an upgrade, that names
// no handle or names an entry the caller does not hold panics, and leaves
// occupancy and the counters as they were.
func TestTaglessReleasePanicsOnBadState(t *testing.T) {
	tab := newTagless(64)
	_, _, hr := tab.AcquireReadH(1, 2)
	_, _, hw := tab.AcquireWriteH(1, 4, 0, NoHandle)
	free := Handle(tab.SlotOf(3) + 1) // the handle entry 3 would be granted under
	occ, stats := tab.Occupied(), tab.Stats()
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"ReleaseRead on free entry", func() { tab.ReleaseReadH(1, 3, free) }},
		{"ReleaseRead with no handle", func() { tab.ReleaseReadH(1, 2, NoHandle) }},
		{"ReleaseRead past the table", func() { tab.ReleaseReadH(1, 2, Handle(tab.N()+1)) }},
		{"ReleaseWrite by non-owner", func() { tab.ReleaseWriteH(2, 4, hw) }},
		{"ReleaseWrite with no handle", func() { tab.ReleaseWriteH(1, 4, NoHandle) }},
		{"ReleaseWriteV with no handle", func() { tab.ReleaseWriteV(1, 4, NoHandle, 5) }},
		{"upgrade with no handle", func() { tab.AcquireWriteH(1, 2, 1, NoHandle) }},
		{"upgrade of a free entry", func() { tab.AcquireWriteH(1, 3, 1, free) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.op()
		}()
		if got, st := tab.Occupied(), tab.Stats(); got != occ || st != stats {
			t.Errorf("%s moved the table: occupied %d, stats %+v; want %d, %+v", c.name, got, st, occ, stats)
		}
	}
	tab.ReleaseReadH(1, 2, hr)
	tab.ReleaseWriteH(1, 4, hw)
	if err := AuditQuiesced(tab); err != nil {
		t.Fatal(err)
	}
}

func TestTaglessStats(t *testing.T) {
	tab := newTagless(64)
	_, _, h := tab.AcquireReadH(1, 1)
	tab.AcquireWriteH(1, 2, 0, NoHandle)
	tab.AcquireWriteH(2, 2, 0, NoHandle) // conflict
	tab.AcquireWriteH(1, 1, 1, h)        // upgrade
	s := tab.Stats()
	if s.ReadAcquires != 1 || s.WriteAcquires != 2 || s.Conflicts != 1 || s.Upgrades != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTaglessReset(t *testing.T) {
	tab := newTagless(64)
	tab.AcquireWriteH(1, 2, 0, NoHandle)
	tab.AcquireReadH(2, 3)
	tab.Reset()
	if tab.Occupied() != 0 {
		t.Fatalf("Occupied after reset = %d", tab.Occupied())
	}
	if s := tab.Stats(); s.WriteAcquires != 0 || s.ReadAcquires != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
	if got, _, _ := tab.AcquireWriteH(3, 2, 0, NoHandle); got != Granted {
		t.Fatalf("write after reset: %v", got)
	}
}

// TestTaglessBookkeepingProperty drives random acquire/release sequences
// through the table and checks the table drains to empty.
func TestTaglessBookkeepingProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := xrand.New(seed)
		tab := newTagless(16)
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

// TestTaglessEntriesDrainToFree verifies every entry is Free once all
// footprints release, not just the occupancy counter.
func TestTaglessEntriesDrainToFree(t *testing.T) {
	r := xrand.New(99)
	tab := newTagless(32)
	fp := NewFootprint(tab, 1)
	for i := 0; i < 200; i++ {
		b := addr.Block(r.Intn(512))
		if r.Bool() {
			fp.Read(b)
		} else {
			fp.Write(b)
		}
	}
	fp.ReleaseAll()
	for i := uint64(0); i < 32; i++ {
		if mode, _ := tab.EntryState(i); mode != Free {
			t.Fatalf("entry %d = %v after full release", i, mode)
		}
	}
}
