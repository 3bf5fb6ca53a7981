package otable

import "testing"

func TestFootprintReadOncePerSlot(t *testing.T) {
	tab := newTagless(64)
	fp := NewFootprint(tab, 1)
	if got := fp.Read(5); got != Granted {
		t.Fatalf("first read: %v", got)
	}
	// Same block again: satisfied from the log, no table traffic.
	before := tab.Stats().ReadAcquires
	if got := fp.Read(5); got != AlreadyHeld {
		t.Fatalf("repeat read: %v", got)
	}
	// An aliasing block (5 and 69 share entry 5) is also covered.
	if got := fp.Read(69); got != AlreadyHeld {
		t.Fatalf("aliasing read: %v", got)
	}
	if after := tab.Stats().ReadAcquires; after != before {
		t.Fatalf("table saw %d extra acquires", after-before)
	}
	mode, count := tab.EntryState(5)
	if mode != Read || count != 1 {
		t.Fatalf("entry = %v/%d, want Read/1", mode, count)
	}
}

func TestFootprintWriteThenReadNoTraffic(t *testing.T) {
	tab := newTagless(64)
	fp := NewFootprint(tab, 1)
	fp.Write(5)
	if got := fp.Read(5); got != AlreadyHeld {
		t.Fatalf("read after write: %v", got)
	}
	fp.ReleaseAll()
	if tab.Occupied() != 0 {
		t.Fatalf("occupancy = %d", tab.Occupied())
	}
}

func TestFootprintUpgradeSwapsObligation(t *testing.T) {
	tab := newTagless(64)
	fp := NewFootprint(tab, 1)
	fp.Read(9)
	if got := fp.Write(9); got != Upgraded {
		t.Fatalf("upgrade: %v", got)
	}
	// ReleaseAll must perform exactly one write release and zero read
	// releases; the entry drains and no panic fires.
	fp.ReleaseAll()
	if tab.Occupied() != 0 {
		t.Fatalf("occupancy = %d", tab.Occupied())
	}
	if s := tab.Stats(); s.Releases != 1 {
		t.Fatalf("releases = %d, want 1", s.Releases)
	}
}

func TestFootprintConflictLeavesNoState(t *testing.T) {
	tab := newTagless(64)
	fp1 := NewFootprint(tab, 1)
	fp2 := NewFootprint(tab, 2)
	fp1.Write(5)
	if got := fp2.Write(69); !got.Conflict() { // aliases entry 5
		t.Fatalf("expected conflict, got %v", got)
	}
	if fp2.Slots() != 0 {
		t.Fatalf("conflicting footprint recorded %d slots", fp2.Slots())
	}
	fp2.ReleaseAll() // must be a no-op, not a panic
	fp1.ReleaseAll()
	if tab.Occupied() != 0 {
		t.Fatalf("occupancy = %d", tab.Occupied())
	}
}

func TestFootprintHolds(t *testing.T) {
	tab := newTagless(64)
	fp := NewFootprint(tab, 1)
	if held, _ := fp.Holds(5); held {
		t.Fatal("empty footprint claims to hold a block")
	}
	fp.Read(5)
	held, excl := fp.Holds(5)
	if !held || excl {
		t.Fatalf("after read: held=%v excl=%v", held, excl)
	}
	fp.Write(5)
	held, excl = fp.Holds(5)
	if !held || !excl {
		t.Fatalf("after write: held=%v excl=%v", held, excl)
	}
	// Aliasing block shares the slot in a tagless table.
	if held, _ := fp.Holds(69); !held {
		t.Fatal("aliasing block not reported held (tagless slots are entries)")
	}
}

func TestFootprintTaggedPerBlock(t *testing.T) {
	tab := newTagged(64)
	fp := NewFootprint(tab, 1)
	fp.Write(5)
	// In a tagged table the aliasing block is a separate slot.
	if held, _ := fp.Holds(69); held {
		t.Fatal("tagged footprint claims to hold an aliasing block")
	}
	if got := fp.Write(69); got != Granted {
		t.Fatalf("aliasing write: %v", got)
	}
	if fp.Slots() != 2 {
		t.Fatalf("slots = %d, want 2", fp.Slots())
	}
	fp.ReleaseAll()
	if tab.Occupied() != 0 {
		t.Fatalf("records = %d", tab.Occupied())
	}
}

func TestFootprintSlotsCount(t *testing.T) {
	tab := newTagless(64)
	fp := NewFootprint(tab, 1)
	fp.Read(1)
	fp.Read(2)
	fp.Write(3)
	fp.Read(65) // aliases slot 1: no new slot
	if fp.Slots() != 3 {
		t.Fatalf("Slots = %d, want 3", fp.Slots())
	}
}
