package otable

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/xrand"
)

// TestCounterBlockPadding pins counterBlock to two cache lines: its
// trailing pad is hand-computed from the word count, and a counter added or
// removed without redoing that arithmetic would let neighboring stripes
// false-share.
func TestCounterBlockPadding(t *testing.T) {
	if got := unsafe.Sizeof(counterBlock{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(counterBlock{}) = %d, want 128", got)
	}
}

// TestAccountingStepByStep walks one first-level cell through every
// transition the event counters distinguish and checks the whole Stats
// snapshot, Occupied and the cell's version sample after each step. The
// expectations are the tagged ones; the tagless table differs only in never
// reporting the tagged-only fields (the aliasing block shares b's entry
// there, so the "second record" is a second sharer — the same counts, one
// occupied entry where the tagged table has two held records). The sample shows a writer from a write grant or upgrade until
// the write release, and a new stamp only after ReleaseWriteV: AlreadyHeld
// grants, denied acquires and read traffic leave it alone.
func TestAccountingStepByStep(t *testing.T) {
	const (
		b     = addr.Block(3)
		alias = addr.Block(3 + 64) // b's first-level cell under NewMask(64)
	)
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			tab, err := New(kind, hash.NewMask(64))
			if err != nil {
				t.Fatal(err)
			}
			read := func(tx TxID, blk addr.Block, want Outcome) Handle {
				out, _, h := tab.AcquireReadH(tx, blk)
				if out != want {
					t.Fatalf("AcquireReadH(%d, %v) = %v, want %v", tx, blk, out, want)
				}
				return h
			}
			write := func(tx TxID, held uint32, h Handle, want Outcome) Handle {
				out, _, h := tab.AcquireWriteH(tx, b, held, h)
				if out != want {
					t.Fatalf("AcquireWriteH(%d, %v, %d) = %v, want %v", tx, b, held, out, want)
				}
				return h
			}
			var h1, h2, ha Handle
			steps := []struct {
				name string
				do   func()
				want Stats
				occ  uint64 // Occupied after the step: tagless entries
				recs uint64 // tagged held records
				ver  uint64 // SampleVersion(b) after the step
				wr   bool
			}{
				{"read from free", func() { h1 = read(1, b, Granted) },
					Stats{ReadAcquires: 1, MaxChain: 1}, 1, 1, 0, false},
				{"second sharer", func() { h2 = read(2, b, Granted) },
					Stats{ReadAcquires: 2, MaxChain: 1}, 1, 1, 0, false},
				{"denied upgrade", func() { write(1, 1, h1, ConflictReaders) },
					Stats{ReadAcquires: 2, Conflicts: 1, MaxChain: 1}, 1, 1, 0, false},
				{"release one share", func() { tab.ReleaseReadH(1, b, h1) },
					Stats{ReadAcquires: 2, Conflicts: 1, Releases: 1, MaxChain: 1}, 1, 1, 0, false},
				{"release last share", func() { tab.ReleaseReadH(2, b, h2) },
					Stats{ReadAcquires: 2, Conflicts: 1, Releases: 2, MaxChain: 1}, 0, 0, 0, false},
				{"write from free", func() { h1 = write(1, 0, NoHandle, Granted) },
					Stats{ReadAcquires: 2, WriteAcquires: 1, Conflicts: 1, Releases: 2, MaxChain: 1}, 1, 1, 0, true},
				{"write already held", func() { write(1, 0, NoHandle, AlreadyHeld) },
					Stats{ReadAcquires: 2, WriteAcquires: 2, Conflicts: 1, Releases: 2, MaxChain: 1}, 1, 1, 0, true},
				{"read already held", func() { read(1, b, AlreadyHeld) },
					Stats{ReadAcquires: 3, WriteAcquires: 2, Conflicts: 1, Releases: 2, MaxChain: 1}, 1, 1, 0, true},
				{"denied read", func() { read(2, b, ConflictWriter) },
					Stats{ReadAcquires: 3, WriteAcquires: 2, Conflicts: 2, Releases: 2, MaxChain: 1}, 1, 1, 0, true},
				{"denied write", func() { write(2, 0, NoHandle, ConflictWriter) },
					Stats{ReadAcquires: 3, WriteAcquires: 2, Conflicts: 3, Releases: 2, MaxChain: 1}, 1, 1, 0, true},
				{"publishing write release", func() { tab.ReleaseWriteV(1, b, h1, 5) },
					Stats{ReadAcquires: 3, WriteAcquires: 2, Conflicts: 3, Releases: 3, MaxChain: 1}, 0, 0, 5, false},
				{"read from free again", func() { h1 = read(1, b, Granted) },
					Stats{ReadAcquires: 4, WriteAcquires: 2, Conflicts: 3, Releases: 3, MaxChain: 1}, 1, 1, 5, false},
				{"second record in the cell", func() { ha = read(2, alias, Granted) },
					Stats{ReadAcquires: 5, WriteAcquires: 2, Conflicts: 3, Releases: 3, MaxChain: 2}, 1, 2, 5, false},
				{"release the second record", func() { tab.ReleaseReadH(2, alias, ha) },
					Stats{ReadAcquires: 5, WriteAcquires: 2, Conflicts: 3, Releases: 4, MaxChain: 2}, 1, 1, 5, false},
				{"upgrade", func() { write(1, 1, h1, Upgraded) },
					Stats{ReadAcquires: 5, WriteAcquires: 3, Upgrades: 1, Conflicts: 3, Releases: 4, MaxChain: 2}, 1, 1, 5, true},
				{"release through the upgraded handle", func() { tab.ReleaseWriteH(1, b, h1) },
					Stats{ReadAcquires: 5, WriteAcquires: 3, Upgrades: 1, Conflicts: 3, Releases: 5, MaxChain: 2}, 0, 0, 5, false},
			}
			for _, s := range steps {
				s.do()
				want, wantOcc := s.want, s.recs
				if kind == "tagless" {
					want.ChainFollows, want.MaxChain = 0, 0
					wantOcc = s.occ
				}
				if got, occ := tab.Stats(), tab.Occupied(); got != want || occ != wantOcc {
					t.Fatalf("after %q:\n got %+v, occupied %d\nwant %+v, occupied %d", s.name, got, occ, want, wantOcc)
				}
				if ver, wr := tab.SampleVersion(b); ver != s.ver || wr != s.wr {
					t.Fatalf("after %q: version = stamp %d, writerActive %v; want %d, %v", s.name, ver, wr, s.ver, s.wr)
				}
			}
			if kind == "tagless" {
				return // one entry, one writer: nothing below can be granted
			}
			// Two writers in one bucket: each block's sample shows its own
			// record's writer and stamp, never its neighbour's, whichever
			// leaves first and however it releases.
			for first := 0; first < 2; first++ {
				blk := [2]addr.Block{b, alias}
				var h [2]Handle
				for i := range blk {
					out, _, hi := tab.AcquireWriteH(TxID(i+1), blk[i], 0, NoHandle)
					if out != Granted {
						t.Fatalf("two writers: AcquireWriteH(%d, %v) = %v", i+1, blk[i], out)
					}
					h[i] = hi
				}
				before, _ := tab.SampleVersion(blk[1-first])
				stamp := uint64(8 + first)
				tab.ReleaseWriteV(TxID(first+1), blk[first], h[first], stamp)
				if ver, wr := tab.SampleVersion(blk[first]); ver != stamp || wr {
					t.Fatalf("the writer that left: version = stamp %d, writerActive %v; want %d, false", ver, wr, stamp)
				}
				if ver, wr := tab.SampleVersion(blk[1-first]); ver != before || !wr {
					t.Fatalf("the writer that stayed: version = stamp %d, writerActive %v; want %d, true", ver, wr, before)
				}
				tab.ReleaseWriteH(TxID(2-first), blk[1-first], h[1-first])
				if ver, wr := tab.SampleVersion(blk[1-first]); ver != before || wr {
					t.Fatalf("both writers left: version = stamp %d, writerActive %v; want %d, false", ver, wr, before)
				}
			}
		})
	}
}

// TestAccountingHammer runs goroutines that tally the outcome of every
// operation they issue — on blocks private to each goroutine's own cells,
// and on a few blocks everyone fights over — and checks at quiescence that
// the striped counters sum to exactly the tallies and that nothing is left
// open. ChainFollows and MaxChain depend on the interleaving and are not
// compared.
func TestAccountingHammer(t *testing.T) {
	const goroutines, iters = 8, 1500
	for _, kind := range Kinds() {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shared=%v", kind, shared), func(t *testing.T) {
				tab, err := New(kind, hash.NewMask(256))
				if err != nil {
					t.Fatal(err)
				}
				tallies := make([]Stats, goroutines)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						tx, n, r := TxID(id+1), &tallies[id], xrand.NewWithStream(7, uint64(id))
						for i := 0; i < iters; i++ {
							b := addr.Block(id*32 + r.Intn(32)) // 8×32 = the table's 256 cells
							if shared {
								b = addr.Block(r.Intn(4))
							}
							if r.Bool() { // read, maybe upgrade, release
								out, _, h := tab.AcquireReadH(tx, b)
								if out.Conflict() {
									n.Conflicts++
									continue
								}
								n.ReadAcquires++
								if r.Bool() {
									tab.ReleaseReadH(tx, b, h)
									n.Releases++
									continue
								}
								if out, _, _ := tab.AcquireWriteH(tx, b, 1, h); out != Upgraded {
									n.Conflicts++
									tab.ReleaseReadH(tx, b, h)
									n.Releases++
									continue
								}
								n.WriteAcquires++
								n.Upgrades++
								tab.ReleaseWriteV(tx, b, h, uint64(i))
								n.Releases++
								continue
							}
							out, _, h := tab.AcquireWriteH(tx, b, 0, NoHandle)
							if out.Conflict() {
								n.Conflicts++
								continue
							}
							outR, _, _ := tab.AcquireReadH(tx, b)
							outW, _, _ := tab.AcquireWriteH(tx, b, 0, h)
							if outR != AlreadyHeld || outW != AlreadyHeld {
								t.Errorf("owner re-acquires = %v, %v, want AlreadyHeld twice", outR, outW)
							}
							n.ReadAcquires++
							n.WriteAcquires += 2
							if r.Bool() {
								tab.ReleaseWriteH(tx, b, h)
							} else {
								tab.ReleaseWriteV(tx, b, h, 0)
							}
							n.Releases++
						}
					}(g)
				}
				wg.Wait()
				got := tab.Stats()
				want := Stats{ChainFollows: got.ChainFollows, MaxChain: got.MaxChain}
				for _, n := range tallies {
					want.ReadAcquires += n.ReadAcquires
					want.WriteAcquires += n.WriteAcquires
					want.Upgrades += n.Upgrades
					want.Conflicts += n.Conflicts
					want.Releases += n.Releases
				}
				if got != want {
					t.Fatalf("Stats at quiescence:\n got %+v\nwant %+v (summed tallies)", got, want)
				}
				if occ := tab.Occupied(); occ != 0 {
					t.Fatalf("Occupied at quiescence = %d, want 0", occ)
				}
				if !shared && got.Conflicts != 0 {
					t.Fatalf("%d conflicts between goroutines on disjoint cells", got.Conflicts)
				}
			})
		}
	}
}

// TestForeignReleaseKeepsVersion: a write release by a transaction that does
// not own the block — or by its owner, a second time — must panic before it
// touches the cell's version word.
// It used to publish (or uncount) first, so the cell lost its active-writer
// mark while the real owner still held it, and the owner's own release then
// underflowed the writer count into the stamp.
func TestForeignReleaseKeepsVersion(t *testing.T) {
	const b = addr.Block(3)
	releases := map[string]func(Table, TxID, Handle){
		"ReleaseWriteH": func(tab Table, tx TxID, h Handle) { tab.ReleaseWriteH(tx, b, h) },
		"ReleaseWriteV": func(tab Table, tx TxID, h Handle) { tab.ReleaseWriteV(tx, b, h, 9) },
	}
	for _, kind := range Kinds() {
		for name, release := range releases {
			t.Run(kind+"/"+name, func(t *testing.T) {
				tab, err := New(kind, hash.NewMask(64))
				if err != nil {
					t.Fatal(err)
				}
				out, _, h := tab.AcquireWriteH(1, b, 0, NoHandle)
				if out != Granted {
					t.Fatalf("owner AcquireWriteH = %v", out)
				}
				tab.StampVersion(b, 7)
				stats := tab.Stats()
				for _, foreign := range []Handle{NoHandle, h} { // no handle, and the owner's handle
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("%s by a non-owner did not panic", name)
							}
						}()
						release(tab, 2, foreign)
					}()
					if stamp, active := tab.SampleVersion(b); stamp != 7 || !active {
						t.Fatalf("after the foreign %s: version = stamp %d, writerActive %v; want 7, true", name, stamp, active)
					}
					if got := tab.Stats(); got != stats || tab.Occupied() != 1 {
						t.Fatalf("the foreign %s moved the accounting: %+v, occupied %d", name, got, tab.Occupied())
					}
				}
				release(tab, 1, h)
				stamp, active := tab.SampleVersion(b)
				if stamp < 7 || active {
					t.Fatalf("after the owner's %s: version = stamp %d, writerActive %v; want >= 7, false", name, stamp, active)
				}
				// A second release of the same grant finds a state word that no
				// longer names the caller: it panics and leaves the version as
				// the first release left it.
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("a double %s did not panic", name)
						}
					}()
					release(tab, 1, h)
				}()
				if again, active := tab.SampleVersion(b); again != stamp || active {
					t.Fatalf("after a double %s: version = stamp %d, writerActive %v; want %d, false", name, again, active, stamp)
				}
				if err := AuditQuiesced(tab); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
