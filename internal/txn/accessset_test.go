package txn

import (
	"testing"

	"tmbp/internal/addr"
	"tmbp/internal/xrand"
)

func TestAccessSetBasics(t *testing.T) {
	var s AccessSet
	if s.Lookup(7) != nil || s.Len() != 0 {
		t.Fatal("zero set not empty")
	}
	e := s.Insert(7)
	if e.Chunk != 7 || e.Hnd != 0 || e.Perm != 0 || e.WMask != 0 {
		t.Fatalf("fresh entry = %+v", *e)
	}
	e.Hnd = 3
	if got := s.Lookup(7); got == nil || got.Hnd != 3 {
		t.Fatal("lookup after insert failed")
	}
	if s.Lookup(8) != nil {
		t.Fatal("phantom entry")
	}
	s.Insert(8).Hnd = 4
	if s.Len() != 2 || s.At(0).Chunk != 7 || s.At(1).Chunk != 8 {
		t.Fatal("insertion order lost")
	}
}

func TestAccessSetResetRetires(t *testing.T) {
	var s AccessSet
	for i := 0; i < 10; i++ {
		s.Insert(addr.Block(i))
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after reset = %d", s.Len())
	}
	for i := 0; i < 10; i++ {
		if s.Lookup(addr.Block(i)) != nil {
			t.Fatalf("stale entry %d visible after reset", i)
		}
	}
	// Reuse after reset must behave like a fresh set.
	e := s.Insert(3)
	if e.Perm != 0 || e.WMask != 0 || s.Len() != 1 {
		t.Fatal("reused entry not zeroed")
	}
}

// TestAccessSetGenerationWrap forces the uint32 generation counter through
// zero and checks retired entries stay retired.
func TestAccessSetGenerationWrap(t *testing.T) {
	var s AccessSet
	s.Insert(42)
	s.gen = ^uint32(0) - 1
	s.Reset() // gen -> max
	s.Insert(42)
	s.Reset() // gen wraps: full index clear, gen -> 1
	if s.gen != 1 {
		t.Fatalf("gen after wrap = %d", s.gen)
	}
	if s.Lookup(42) != nil {
		t.Fatal("entry resurrected across generation wrap")
	}
	s.Insert(42)
	if s.Lookup(42) == nil {
		t.Fatal("insert after wrap failed")
	}
}

// TestAccessSetSpillsBeyondInline grows far past the inline capacity and
// checks membership, order, and values survive both grow paths.
func TestAccessSetSpillsBeyondInline(t *testing.T) {
	var s AccessSet
	const n = 10 * InlineEntries
	for i := 0; i < n; i++ {
		e := s.Insert(addr.Block(i * 977))
		e.Vals[0] = uint64(i)
		e.WMask = 1
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		e := s.Lookup(addr.Block(i * 977))
		if e == nil || e.Vals[0] != uint64(i) {
			t.Fatalf("entry %d lost or corrupted after growth", i)
		}
		if s.At(i).Chunk != addr.Block(i*977) {
			t.Fatalf("dense order broken at %d", i)
		}
	}
}

// TestAccessSetMatchesMapModel drives random insert/lookup/reset traffic
// against a plain map.
func TestAccessSetMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := xrand.New(seed)
		var s AccessSet
		model := make(map[addr.Block]uint8)
		var order []addr.Block
		for op := 0; op < 2000; op++ {
			switch r.Intn(20) {
			case 0: // reset
				s.Reset()
				model = make(map[addr.Block]uint8)
				order = order[:0]
			default:
				c := addr.Block(r.Uint64n(200))
				e := s.Lookup(c)
				if _, ok := model[c]; ok != (e != nil) {
					t.Fatalf("seed %d: membership(%d) = %v, model %v", seed, c, e != nil, ok)
				}
				if e == nil {
					p := uint8(r.Intn(16))
					s.Insert(c).Perm = p
					model[c] = p
					order = append(order, c)
				} else if e.Perm != model[c] {
					t.Fatalf("seed %d: perm(%d) = %d, model %d", seed, c, e.Perm, model[c])
				}
			}
		}
		if s.Len() != len(order) {
			t.Fatalf("seed %d: Len = %d, model %d", seed, s.Len(), len(order))
		}
		for i, c := range order {
			if s.At(i).Chunk != c {
				t.Fatalf("seed %d: order[%d] = %v, want %v", seed, i, s.At(i).Chunk, c)
			}
		}
	}
}

// BenchmarkAccessSetProbe measures the single-probe hit path.
func BenchmarkAccessSetProbe(b *testing.B) {
	b.ReportAllocs()
	var s AccessSet
	for i := 0; i < 8; i++ {
		s.Insert(addr.Block(i * 64))
	}
	b.ResetTimer()
	var sink *Access
	for i := 0; i < b.N; i++ {
		sink = s.Lookup(addr.Block((i % 8) * 64))
	}
	_ = sink
}

// BenchmarkAccessSetTxnCycle measures one 8-access transaction's worth of
// set traffic including the generation reset; steady state must be
// allocation-free.
func BenchmarkAccessSetTxnCycle(b *testing.B) {
	b.ReportAllocs()
	var s AccessSet
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			c := addr.Block(k * 64)
			if s.Lookup(c) == nil {
				e := s.Insert(c)
				e.Hnd = uint64(k + 1)
				e.Vals[0] = uint64(i)
				e.WMask = 1
			}
		}
		s.Reset()
	}
}
