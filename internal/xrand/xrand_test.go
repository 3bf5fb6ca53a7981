package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Reference(t *testing.T) {
	// Reference values for seed 1234567 from the public-domain splitmix64.c.
	sm := NewSplitMix64(1234567)
	want := []uint64{
		6457827717110365317,
		3203168211198807973,
		9817491932198370423,
		4593380528125082431,
		16408922859458223821,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64(1234567) output %d = %d, want %d", i, got, w)
		}
	}
}

func TestNewDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed streams diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewWithStream(7, 0)
	b := NewWithStream(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 0 and 1 of seed 7 produced %d identical outputs", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 63, 64, 65, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square test over 16 buckets; threshold is the 99.9% quantile for
	// 15 degrees of freedom (~37.7). A deterministic seed keeps it stable.
	r := New(99)
	const buckets, draws = 16, 160000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Fatalf("Intn chi-square = %.2f, exceeds 99.9%% bound 37.7 (counts %v)", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	check := func(n uint8) bool {
		size := int(n%64) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	const p = 0.25
	sum := 0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean = %.3f, want ~%.3f", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if v := r.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", v)
		}
	}
}

func TestSplitProducesDistinctStreams(t *testing.T) {
	parent := New(31)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams overlapped %d times", same)
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 10000; i++ {
		v := Mix64(i)
		if seen[v] {
			t.Fatalf("Mix64 collision at input %d", i)
		}
		seen[v] = true
	}
}

func TestZipfDistribution(t *testing.T) {
	r := New(37)
	z := NewZipf(100, 1.0)
	const n = 200000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	// Item 0 should be the most popular and match its analytic mass.
	p0 := z.Prob(0)
	got := float64(counts[0]) / n
	if math.Abs(got-p0) > 0.01 {
		t.Fatalf("Zipf item 0 frequency = %.4f, want ~%.4f", got, p0)
	}
	for k := 1; k < 100; k++ {
		if counts[k] > counts[0] {
			t.Fatalf("Zipf item %d more frequent than item 0", k)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 0; k < 10; k++ {
		if p := z.Prob(k); math.Abs(p-0.1) > 1e-12 {
			t.Fatalf("Zipf(s=0) Prob(%d) = %v, want 0.1", k, p)
		}
	}
}

func TestZipfCDFProperties(t *testing.T) {
	check := func(nRaw uint8, sRaw uint8) bool {
		n := int(nRaw%50) + 1
		s := float64(sRaw%30) / 10
		z := NewZipf(n, s)
		total := 0.0
		for k := 0; k < n; k++ {
			p := z.Prob(k)
			if p < 0 {
				return false
			}
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSampleInRange(t *testing.T) {
	r := New(41)
	z := NewZipf(7, 1.2)
	for i := 0; i < 10000; i++ {
		if v := z.Sample(r); v < 0 || v >= 7 {
			t.Fatalf("Zipf sample out of range: %d", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64n(1000003)
	}
	_ = sink
}
