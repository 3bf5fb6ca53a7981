package trace

import (
	"math"
	"testing"

	"tmbp/internal/addr"
)

type fixedStream struct {
	accs []Access
	pos  int
}

func (f *fixedStream) Next() Access {
	a := f.accs[f.pos%len(f.accs)]
	f.pos++
	return a
}

func TestTake(t *testing.T) {
	s := &fixedStream{accs: []Access{{Block: 1}, {Block: 2}, {Block: 3}}}
	got := Take(s, 5)
	if len(got) != 5 || got[0].Block != 1 || got[3].Block != 1 {
		t.Fatalf("Take = %v", got)
	}
}

func TestWriteFraction(t *testing.T) {
	accs := []Access{{Write: true}, {Write: false}, {Write: false}, {Write: true}}
	if got := WriteFraction(accs); got != 0.5 {
		t.Fatalf("WriteFraction = %v", got)
	}
	if got := WriteFraction(nil); got != 0 {
		t.Fatalf("empty WriteFraction = %v", got)
	}
}

func TestWarehouseDeterministic(t *testing.T) {
	cfg := DefaultWarehouse(2)
	a, err := NewWarehouse(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWarehouse(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x, y := a[0].Next(), b[0].Next()
		if x != y {
			t.Fatalf("same-seed warehouse streams diverged at %d: %v vs %v", i, x, y)
		}
	}
}

func TestWarehouseValidation(t *testing.T) {
	if _, err := NewWarehouse(WarehouseConfig{Threads: 0}, 1); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := NewWarehouse(WarehouseConfig{Threads: 2, ArenaAlign: 3 << 20}, 1); err == nil {
		t.Error("non-power-of-two arena accepted")
	}
}

func TestWarehouseArenasDisjoint(t *testing.T) {
	threads, err := NewWarehouse(DefaultWarehouse(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range threads {
		for j, b := range threads {
			if ra, rb := a.Arena(), b.Arena(); i != j && ra.Base < rb.End() && rb.Base < ra.End() {
				t.Fatalf("arenas %d and %d overlap", i, j)
			}
		}
	}
}

func TestWarehousePrivateAccessesStayInArena(t *testing.T) {
	threads, err := NewWarehouse(DefaultWarehouse(3), 11)
	if err != nil {
		t.Fatal(err)
	}
	shared := addr.NewRegion(0, 4<<20)
	for _, th := range threads {
		for i := 0; i < 2000; i++ {
			acc := th.Next()
			a := addr.BlockAddr(acc.Block)
			if !th.Arena().Contains(a) && !shared.Contains(a) {
				t.Fatalf("thread %d access %v outside its arena and the shared region", th.ID(), a)
			}
		}
	}
}

func TestWarehouseWriteFraction(t *testing.T) {
	threads, err := NewWarehouse(DefaultWarehouse(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	accs := Take(threads[0], 30000)
	wf := WriteFraction(accs)
	if math.Abs(wf-1.0/3) > 0.03 {
		t.Fatalf("write fraction = %.3f, want ~0.333", wf)
	}
}

func TestWarehouseSpatialLocality(t *testing.T) {
	// Object walks mean consecutive accesses are frequently adjacent
	// blocks; random streams would almost never be.
	threads, err := NewWarehouse(DefaultWarehouse(1), 9)
	if err != nil {
		t.Fatal(err)
	}
	accs := Take(threads[0], 10000)
	adjacent := 0
	for i := 1; i < len(accs); i++ {
		if accs[i].Block == accs[i-1].Block+1 {
			adjacent++
		}
	}
	frac := float64(adjacent) / float64(len(accs)-1)
	if frac < 0.3 {
		t.Fatalf("adjacent-block fraction = %.3f, want >= 0.3 (object locality)", frac)
	}
}

func TestWarehouseHeaderAliasing(t *testing.T) {
	// Different threads' header accesses sit at identical offsets within
	// their arenas: the alias-floor mechanism. Verify both threads emit
	// header blocks (arena-relative offset < HeaderBlocks).
	cfg := DefaultWarehouse(2)
	threads, err := NewWarehouse(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	sawHeader := 0
	for _, th := range threads {
		base := addr.BlockOf(th.Arena().Base)
		for i := 0; i < 5000; i++ {
			acc := th.Next()
			if acc.Block >= base && acc.Block < base+8 {
				sawHeader++
				break
			}
		}
	}
	if sawHeader != 2 {
		t.Fatalf("only %d/2 threads touched header blocks", sawHeader)
	}
}

func TestSpecStreamDeterministic(t *testing.T) {
	p, err := ProfileByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSpecStream(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpecStream(p, 21)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("same-seed spec streams diverged at %d", i)
		}
	}
}

func TestSpecProfilesValid(t *testing.T) {
	ps := SpecProfiles()
	if len(ps) != 12 {
		t.Fatalf("SpecProfiles returned %d profiles, want 12", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if _, err := NewSpecStream(p, 1); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestSpecStreamValidation(t *testing.T) {
	bad := []Profile{
		{Name: "x", NewRate: 0},
		{Name: "x", NewRate: 1.5},
		{Name: "x", NewRate: 0.1, NewRateDecay: -1},
		{Name: "x", NewRate: 0.1, SeqShare: 0.8, StrideShare: 0.5},
	}
	for _, p := range bad {
		if _, err := NewSpecStream(p, 1); err == nil {
			t.Errorf("invalid profile %+v accepted", p)
		}
	}
}

func TestSpecStreamInstrsPositive(t *testing.T) {
	p, _ := ProfileByName("mcf")
	s, _ := NewSpecStream(p, 2)
	for i := 0; i < 5000; i++ {
		if a := s.Next(); a.Instrs < 1 {
			t.Fatalf("access %d has Instrs = %d", i, a.Instrs)
		}
	}
}

func TestSpecStreamReadOnlyBlocksNeverWritten(t *testing.T) {
	p, _ := ProfileByName("gzip")
	s, _ := NewSpecStream(p, 4)
	written := map[addr.Block]bool{}
	for i := 0; i < 20000; i++ {
		a := s.Next()
		if a.Write {
			written[a.Block] = true
		}
	}
	for b := range written {
		if !s.writable(b) {
			t.Fatalf("read-only block %v was written", b)
		}
	}
}

func TestSpecStrideBurstSameSet(t *testing.T) {
	// All blocks of one stride burst must map to the same 128-set index.
	p := Profile{Name: "stride-only", NewRate: 1, SeqShare: 0, StrideShare: 1, StrideBurst: 4}
	s, err := NewSpecStream(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	for burst := 0; burst < 50; burst++ {
		first := s.Next().Block % 128
		for k := 1; k < 4; k++ {
			if got := s.Next().Block % 128; got != first {
				t.Fatalf("burst %d block %d in set %d, want %d", burst, k, got, first)
			}
		}
	}
}

func TestSpecSeqPlacementIsSequential(t *testing.T) {
	p := Profile{Name: "seq-only", NewRate: 1, SeqShare: 1}
	s, err := NewSpecStream(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Next().Block
	for i := 0; i < 500; i++ {
		cur := s.Next().Block
		if cur != prev+1 {
			t.Fatalf("sequential placement jumped from %v to %v", prev, cur)
		}
		prev = cur
	}
}
