package otable

import (
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
)

// These tests pin down the release-by-handle contract: steady-state
// re-acquire + release of a recurring working set does zero chain
// traversals (the regression the ChainFollows counter guards; ReleaseWalks
// stays 0 because no release walks), upgrades through a handle are
// walk-free too, and a stale handle — whose record was reaped and its slab
// slot reused — or no handle at all is detected and panics instead of
// corrupting the new incarnation.

// TestHandleReleaseSkipsChainWalk cycles a recurring working set — one
// block per bucket, the steady state of every serial workload — through
// handle-based acquire/release and asserts the table never walks a chain:
// acquires find their record parked at the bucket head and releases go
// straight to the record, so both traversal counters stay at zero.
func TestHandleReleaseSkipsChainWalk(t *testing.T) {
	t.Run("tagged", func(t *testing.T) {
		tab := NewTagged(hash.NewMask(64))
		const workingSet = 16 // distinct buckets under the mask hash
		handles := make([]Handle, workingSet)
		for cycle := 0; cycle < 50; cycle++ {
			for i := 0; i < workingSet; i++ {
				b := addr.Block(i)
				var out Outcome
				if i%2 == 0 {
					out, _, handles[i] = tab.AcquireWriteH(1, b, 0, NoHandle)
				} else {
					out, _, handles[i] = tab.AcquireReadH(1, b)
				}
				if out != Granted {
					t.Fatalf("cycle %d block %d: outcome %v", cycle, i, out)
				}
				if handles[i] == NoHandle {
					t.Fatalf("cycle %d block %d: no handle issued on Granted", cycle, i)
				}
			}
			for i := 0; i < workingSet; i++ {
				b := addr.Block(i)
				if i%2 == 0 {
					tab.ReleaseWriteH(1, b, handles[i])
				} else {
					tab.ReleaseReadH(1, b, handles[i])
				}
			}
		}
		st := tab.Stats()
		if st.ReleaseWalks != 0 {
			t.Fatalf("ReleaseWalks = %d, want 0: releases re-walked the chain despite handles", st.ReleaseWalks)
		}
		if st.ChainFollows != 0 {
			t.Fatalf("ChainFollows = %d, want 0 for a one-record-per-bucket working set", st.ChainFollows)
		}
		if want := uint64(50 * workingSet); st.Releases != want {
			t.Fatalf("Releases = %d, want %d", st.Releases, want)
		}
		if occ := tab.Occupied(); occ != 0 {
			t.Fatalf("occupancy after drain = %d", occ)
		}
	})
}

// TestHandleUpgradeSkipsChainWalk checks the upgrade half: read → write
// through the read share's handle is one state CAS, no traversal, and the
// handle stays valid for the final release.
func TestHandleUpgradeSkipsChainWalk(t *testing.T) {
	t.Run("tagged", func(t *testing.T) {
		tab := NewTagged(hash.NewMask(64))
		b := addr.Block(7)
		for cycle := 0; cycle < 20; cycle++ {
			out, _, h := tab.AcquireReadH(4, b)
			if out != Granted {
				t.Fatalf("read acquire: %v", out)
			}
			out, _, h2 := tab.AcquireWriteH(4, b, 1, h)
			if out != Upgraded || h2 != h {
				t.Fatalf("upgrade: outcome %v handle %v (want Upgraded, unchanged %v)", out, h2, h)
			}
			tab.ReleaseWriteH(4, b, h2)
		}
		st := tab.Stats()
		if st.ReleaseWalks != 0 || st.ChainFollows != 0 {
			t.Fatalf("upgrade cycles walked: ReleaseWalks=%d ChainFollows=%d, want 0/0",
				st.ReleaseWalks, st.ChainFollows)
		}
		if st.Upgrades != 20 {
			t.Fatalf("Upgrades = %d, want 20", st.Upgrades)
		}
		if occ := tab.Occupied(); occ != 0 {
			t.Fatalf("occupancy after drain = %d", occ)
		}
	})
}

// TestTaglessHandleRoundTrip covers the tagless handle (the entry index):
// acquire, upgrade and release through it land on the block's entry.
func TestTaglessHandleRoundTrip(t *testing.T) {
	h := hash.NewMask(32)
	tab := NewTagless(h)
	b := addr.Block(3)
	idx := h.Index(b)
	out, _, hd := tab.AcquireReadH(9, b)
	if out != Granted || hd == NoHandle {
		t.Fatalf("AcquireReadH = %v, %v", out, hd)
	}
	if mode, n := tab.EntryState(idx); mode != Read || n != 1 {
		t.Fatalf("entry = %v/%d after read acquire", mode, n)
	}
	out, _, hd2 := tab.AcquireWriteH(9, b, 1, hd)
	if out != Upgraded || hd2 != hd {
		t.Fatalf("AcquireWriteH upgrade = %v, %v", out, hd2)
	}
	tab.ReleaseWriteH(9, b, hd2)
	if mode, _ := tab.EntryState(idx); mode != Free {
		t.Fatalf("entry = %v after handle release, want Free", mode)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy = %d", occ)
	}
}

// TestStaleHandleDetected builds the reaped-and-reused scenario the
// generation validation exists for: a block's parked record is forced out
// by the reaping walk, its slab slot is recycled for a different tag under
// a new generation, and a release or upgrade through the old handle must
// (a) fail generation validation, (b) panic on the bookkeeping bug, and
// (c) leave the slot's new owner, the occupancy and the counters
// untouched. A release or upgrade that names no handle panics the same way.
func TestStaleHandleDetected(t *testing.T) {
	h := hash.NewMask(64)
	tab := NewTagged(h)
	hot := addr.Block(5)
	alias := func(k int) addr.Block { return hot + addr.Block(k*64) } // same bucket

	// Park hot's record as Free, keeping its (now dead-weight) handle.
	out, _, stale := tab.AcquireWriteH(1, hot, 0, NoHandle)
	if out != Granted {
		t.Fatalf("setup acquire: %v", out)
	}
	tab.ReleaseWriteH(1, hot, stale)

	// Grow the chain with held records. Each insert's full walk pushes the
	// parked record deeper; once it sits past reapDepth the walk condemns,
	// unlinks, and retires it (bumping its generation), and the next insert
	// recycles the slab slot under a fresh generation and tag.
	type heldRec struct {
		b addr.Block
		h Handle
	}
	var held []heldRec
	for k := 1; k <= reapDepth+2; k++ {
		out, _, hk := tab.AcquireWriteH(2, alias(k), 0, NoHandle)
		if out != Granted {
			t.Fatalf("chain-grow acquire %d: %v", k, out)
		}
		held = append(held, heldRec{alias(k), hk})
	}

	// The stale and handle-less calls must be detected and diagnosed, not
	// absorbed.
	reader := alias(100) // a block tx 3 holds a share of, to upgrade
	_, _, shared := tab.AcquireReadH(3, reader)
	occ, stats := tab.Occupied(), tab.Stats()
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"stale-handle release", func() { tab.ReleaseWriteH(1, hot, stale) }},
		{"stale-handle stamped release", func() { tab.ReleaseWriteV(1, hot, stale, 9) }},
		{"stale-handle read release", func() { tab.ReleaseReadH(1, hot, stale) }},
		{"stale-handle upgrade", func() { tab.AcquireWriteH(1, hot, 1, stale) }},
		{"handle-less release", func() { tab.ReleaseWriteH(2, held[0].b, NoHandle) }},
		{"handle-less stamped release", func() { tab.ReleaseWriteV(2, held[0].b, NoHandle, 9) }},
		{"handle-less read release", func() { tab.ReleaseReadH(3, reader, NoHandle) }},
		{"handle-less upgrade", func() { tab.AcquireWriteH(3, reader, 1, NoHandle) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic: a record absorbed a release or upgrade no hold names", c.name)
				}
			}()
			c.op()
		}()
		if got, st := tab.Occupied(), tab.Stats(); got != occ || st != stats {
			t.Fatalf("%s moved the table: occupied %d, stats %+v; want %d, %+v", c.name, got, st, occ, stats)
		}
	}
	tab.ReleaseReadH(3, reader, shared)

	// Every legitimate holder is unaffected: all handle releases succeed
	// and the table drains completely.
	for _, hr := range held {
		tab.ReleaseWriteH(2, hr.b, hr.h)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy after drain = %d", occ)
	}
}

// TestStaleReadHandleFallsBack is the read-share variant: a release through
// a stale read handle on a recycled record must panic on the missing share
// rather than decrement the new incarnation. (The name predates the
// walking release the stale handle used to fall back to.)
func TestStaleReadHandleFallsBack(t *testing.T) {
	h := hash.NewMask(64)
	tab := NewTagged(h)
	hot := addr.Block(9)
	alias := func(k int) addr.Block { return hot + addr.Block(k*64) }

	out, _, stale := tab.AcquireReadH(1, hot)
	if out != Granted {
		t.Fatalf("setup acquire: %v", out)
	}
	tab.ReleaseReadH(1, hot, stale)

	var handles []Handle
	for k := 1; k <= reapDepth+2; k++ {
		out, _, hk := tab.AcquireReadH(2, alias(k))
		if out != Granted {
			t.Fatalf("chain-grow acquire %d: %v", k, out)
		}
		handles = append(handles, hk)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("stale read-handle release did not panic")
			}
		}()
		tab.ReleaseReadH(1, hot, stale)
	}()
	for k, hk := range handles {
		tab.ReleaseReadH(2, alias(k+1), hk)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy after drain = %d", occ)
	}
}
