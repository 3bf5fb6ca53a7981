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
//
// The tagless case writes a working set that aliases in pairs: each chunk's
// first write acquires, the second of a pair finds the entry AlreadyHeld,
// and only the granted entry releases — one release per slot, one write
// acquire per block, and nothing left held.
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
	t.Run("tagless", func(t *testing.T) {
		const (
			entries = 64
			txns    = 200
			slots   = 4
			blocks  = 2 * slots // block k and block k+entries share entry k
		)
		tab := otable.NewTagless(hash.NewMask(entries))
		mem := NewMemory(2 * entries * 8)
		rt, err := New(Config{Table: tab, Memory: mem, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		th := rt.NewThread()
		word := func(k int) int { return (k/2 + k%2*entries) * 8 }
		for i := 0; i < txns; i++ {
			if err := th.Atomic(func(tx *Tx) error {
				for k := 0; k < blocks; k++ {
					a := mem.WordAddr(word(k))
					tx.Write(a, tx.Read(a)+1)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		st := tab.Stats()
		if st.Releases != txns*slots || st.WriteAcquires != txns*blocks || st.ReleaseWalks != 0 {
			t.Fatalf("Releases/WriteAcquires/ReleaseWalks = %d/%d/%d, want %d/%d/0",
				st.Releases, st.WriteAcquires, st.ReleaseWalks, txns*slots, txns*blocks)
		}
		for k := 0; k < blocks; k++ {
			if got := mem.LoadDirect(mem.WordAddr(word(k))); got != txns {
				t.Fatalf("word %d = %d, want %d", word(k), got, txns)
			}
		}
		if occ := tab.Occupied(); occ != 0 {
			t.Fatalf("occupancy after drain = %d", occ)
		}
	})
}
