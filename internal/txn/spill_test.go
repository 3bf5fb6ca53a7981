package txn

import (
	"testing"

	"tmbp/internal/addr"
)

// expectedIndexLen is the probe-table capacity the growth policy (double
// when 2*(n+1) > len) must reach to hold n entries at load factor ≤ 1/2,
// starting from the 2*InlineEntries inline table.
func expectedIndexLen(n int) int {
	l := 2 * InlineEntries
	for 2*n > l {
		l *= 2
	}
	return l
}

// TestAccessSetSpillFootprintGrowth pins the spill path at the range-scan
// footprints the skiplist introduces: 256/1024/4096 adjacent chunks (a
// scan's footprint is exactly a run of adjacent blocks). For each size it
// checks the growth count, that insertion order and membership survive
// every doubling, and that the hash shift follows the probe table's length.
func TestAccessSetSpillFootprintGrowth(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		var s AccessSet
		base := addr.Block(1 << 20)
		for i := 0; i < n; i++ {
			s.Insert(base + addr.Block(i)).Hnd = uint64(i + 1)
		}
		if s.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, s.Len())
		}
		want := expectedIndexLen(n)
		if len(s.index) != want {
			t.Fatalf("n=%d: index length %d, want %d", n, len(s.index), want)
		}
		if got := uint(64 - log2(want)); s.shift != got {
			t.Fatalf("n=%d: shift %d inconsistent with index length %d", n, s.shift, want)
		}
		for i := 0; i < n; i++ {
			c := base + addr.Block(i)
			e := s.Lookup(c)
			if e == nil || e.Chunk != c {
				t.Fatalf("n=%d: chunk %d lost across growth", n, i)
			}
			if s.At(i).Chunk != c {
				t.Fatalf("n=%d: insertion order lost at %d (have %d)", n, i, s.At(i).Chunk)
			}
		}
	}
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// TestAccessSetSpillZeroAllocSteadyState is the spill path's allocation
// contract: once a 4096-entry transaction has established capacity, the
// insert/lookup/reset cycle at that footprint never touches the heap again.
func TestAccessSetSpillZeroAllocSteadyState(t *testing.T) {
	const n = 4096
	var s AccessSet
	cycle := func() {
		s.Reset()
		for i := 0; i < n; i++ {
			s.Insert(addr.Block(i)).Perm = PermRead
		}
		for i := 0; i < n; i += 37 {
			if s.Lookup(addr.Block(i)) == nil {
				t.Fatal("lookup miss in warm set")
			}
		}
	}
	cycle() // establish capacity
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("steady-state %d-entry cycle allocates %v times, want 0", n, allocs)
	}
}

// TestAccessSetSpillGenerationReset checks Reset semantics after a deep
// spill: every retired entry is invisible, the grown capacity is retained
// rather than regrown, and reuse behaves like a fresh set.
func TestAccessSetSpillGenerationReset(t *testing.T) {
	const n = 1024
	var s AccessSet
	for i := 0; i < n; i++ {
		s.Insert(addr.Block(i)).Hnd = uint64(i + 1)
	}
	capBefore := len(s.index)
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Len after reset = %d", s.Len())
	}
	for i := 0; i < n; i++ {
		if s.Lookup(addr.Block(i)) != nil {
			t.Fatalf("stale chunk %d visible after reset", i)
		}
	}
	// Refill: same footprint must fit in the retained capacity with no
	// further growth, and the new generation's entries resolve correctly.
	for i := 0; i < n; i++ {
		s.Insert(addr.Block(i)).Hnd = uint64(n + i)
	}
	if len(s.index) != capBefore {
		t.Fatalf("index regrew across reset: %d -> %d", capBefore, len(s.index))
	}
	for i := 0; i < n; i++ {
		if e := s.Lookup(addr.Block(i)); e == nil || e.Hnd != uint64(n+i) || s.At(i) != e {
			t.Fatalf("chunk %d lost after reset+refill", i)
		}
	}
}

// TestAccessSetAdjacentProbeDistribution pins the hash quality claim behind
// the spill path: Fibonacci hashing spreads a run of adjacent chunks (the
// scan footprint) essentially collision-free, so probe chains stay short at
// load factor 1/2. The bounds are loose enough to survive any future chunk
// numbering but tight enough to catch a degraded hash.
func TestAccessSetAdjacentProbeDistribution(t *testing.T) {
	const n = 4096
	var s AccessSet
	base := addr.Block(3 << 22)
	for i := 0; i < n; i++ {
		s.Insert(base + addr.Block(i))
	}
	mask := uint64(len(s.index) - 1)
	var total, worst int
	for i := 0; i < n; i++ {
		c := base + addr.Block(i)
		h := (uint64(c) * fibMult) >> s.shift
		probes := 1
		for s.dense[s.index[h].idx].Chunk != c {
			h = (h + 1) & mask
			probes++
		}
		total += probes
		if probes > worst {
			worst = probes
		}
	}
	if mean := float64(total) / n; mean > 1.5 {
		t.Errorf("mean probe length %.3f over %d adjacent chunks, want <= 1.5", mean, n)
	}
	if worst > 16 {
		t.Errorf("worst probe length %d over %d adjacent chunks, want <= 16", worst, n)
	}
}
