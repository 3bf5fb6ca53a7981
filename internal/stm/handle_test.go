package stm

import (
	"testing"

	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// TestSerialCommitReleasesByHandle is the end-to-end release-by-handle
// regression: a serial thread re-running transactions over a recurring
// working set must never make the tagged table walk a chain — acquires
// claim the parked record at the bucket head and every commit-time release
// goes through the access-set entry's handle. ReleaseWalks and
// ChainFollows both staying at zero is exactly "no chain re-walk on the
// serial commit path".
func TestSerialCommitReleasesByHandle(t *testing.T) {
	t.Run("tagged", func(t *testing.T) {
		tab := otable.NewTagged(hash.NewMask(256))
		mem := NewMemory(1 << 10)
		rt, err := New(Config{Table: tab, Memory: mem, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		th := rt.NewThread()
		const (
			txns       = 200
			workingSet = 8 // blocks, recurring every transaction
		)
		for i := 0; i < txns; i++ {
			if err := th.Atomic(func(tx *Tx) error {
				for k := 0; k < workingSet; k++ {
					a := mem.WordAddr(k * 8) // one word per block
					tx.Write(a, tx.Read(a)+1)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		st := tab.Stats()
		if st.ReleaseWalks != 0 {
			t.Fatalf("ReleaseWalks = %d, want 0: the serial commit path re-walked chains", st.ReleaseWalks)
		}
		if st.ChainFollows != 0 {
			t.Fatalf("ChainFollows = %d, want 0 for a recurring one-record-per-bucket working set", st.ChainFollows)
		}
		if want := uint64(txns * workingSet); st.Releases != want {
			t.Fatalf("Releases = %d, want %d", st.Releases, want)
		}
		for k := 0; k < workingSet; k++ {
			if got := mem.LoadDirect(mem.WordAddr(k * 8)); got != txns {
				t.Fatalf("word %d = %d, want %d", k*8, got, txns)
			}
		}
		if occ := tab.Occupied(); occ != 0 {
			t.Fatalf("occupancy after drain = %d", occ)
		}
	})
}

// TestNTProbesReleaseByHandle covers the strong-isolation one-slot probes:
// LoadNT/StoreNT release what they acquired through the issued handle, so
// they never walk either.
func TestNTProbesReleaseByHandle(t *testing.T) {
	tab := otable.NewTagged(hash.NewMask(64))
	mem := NewMemory(64)
	rt, err := New(Config{Table: tab, Memory: mem, Isolation: StrongIsolation, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	for i := 0; i < 100; i++ {
		if err := th.StoreNT(mem.WordAddr(0), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if v, err := th.LoadNT(mem.WordAddr(0)); err != nil || v != uint64(i) {
			t.Fatalf("LoadNT = %d, %v", v, err)
		}
	}
	st := tab.Stats()
	if st.ReleaseWalks != 0 {
		t.Fatalf("ReleaseWalks = %d, want 0 for NT probes", st.ReleaseWalks)
	}
	if occ := tab.Occupied(); occ != 0 {
		t.Fatalf("occupancy = %d", occ)
	}
}
