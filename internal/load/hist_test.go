package load

import (
	"math"
	"testing"

	"tmbp/internal/xrand"
)

// TestHistBucketRoundTrip proves the bucketing scheme self-consistent at
// every precision: every bucket's reported value (its lower bound) maps
// back to the same bucket, and the lower bounds are strictly increasing —
// together these mean buckets tile the value range without gaps or
// overlaps.
func TestHistBucketRoundTrip(t *testing.T) {
	for _, bits := range []int{1, 4, 7, histMaxBits} {
		h := NewHist(bits)
		prev := int64(-1)
		for i := range h.counts {
			v := h.valueAt(i)
			if v <= prev {
				t.Fatalf("bits=%d: valueAt(%d)=%d not above valueAt(%d)=%d", bits, i, v, i-1, prev)
			}
			if got := h.index(uint64(v)); got != i {
				t.Fatalf("bits=%d: index(valueAt(%d)=%d) = %d", bits, i, v, got)
			}
			prev = v
		}
		// The scheme covers the full non-negative int64 range.
		if got := h.index(uint64(1<<63 - 1)); got >= len(h.counts) {
			t.Fatalf("bits=%d: max int64 indexes out of range: %d >= %d", bits, got, len(h.counts))
		}
	}
}

// TestHistExactQuantiles checks exact quantile recovery in the exact
// region: values below 2^(bits+1) come back verbatim.
func TestHistExactQuantiles(t *testing.T) {
	h := NewHist(7) // exact below 256
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Min() != 1 || h.Max() != 100 || h.Count() != 100 {
		t.Errorf("min/max/count = %d/%d/%d, want 1/100/100", h.Min(), h.Max(), h.Count())
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean() = %v, want 50.5", got)
	}
}

// TestHistRelativeErrorBound sweeps random values across every decade up
// to 10^12 ns and asserts the core accuracy contract: the reported bucket
// lower bound never exceeds the value and undershoots it by less than the
// configured relative error.
func TestHistRelativeErrorBound(t *testing.T) {
	rng := xrand.New(42)
	for _, bits := range []int{3, 7, 12} {
		h := NewHist(bits)
		relErr := h.RelError()
		lo := int64(1)
		for decade := 0; decade < 12; decade++ {
			hi := lo * 10
			for n := 0; n < 1000; n++ {
				v := lo + int64(rng.Uint64n(uint64(hi-lo)))
				got := h.valueAt(h.index(uint64(v)))
				if got > v {
					t.Fatalf("bits=%d: reported %d above recorded %d", bits, got, v)
				}
				if err := float64(v-got) / float64(v); err > relErr {
					t.Fatalf("bits=%d: value %d reported as %d, relative error %v > %v",
						bits, v, got, err, relErr)
				}
			}
			lo = hi
		}
	}
}

// TestHistMergeEquivalent pins the merge contract: merging histograms
// recorded separately is exactly recording every value into one.
func TestHistMergeEquivalent(t *testing.T) {
	rng := xrand.New(7)
	one := NewHist(7)
	parts := []*Hist{NewHist(7), NewHist(7), NewHist(7)}
	for i := 0; i < 30000; i++ {
		v := int64(rng.Uint64n(1 << 40))
		one.Record(v)
		parts[i%len(parts)].Record(v)
	}
	merged := NewHist(7)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.count != one.count || merged.sum != one.sum ||
		merged.min != one.min || merged.max != one.max {
		t.Fatalf("merged summary (%d, %d, %d, %d) != direct (%d, %d, %d, %d)",
			merged.count, merged.sum, merged.min, merged.max,
			one.count, one.sum, one.min, one.max)
	}
	for i := range one.counts {
		if merged.counts[i] != one.counts[i] {
			t.Fatalf("bucket %d: merged %d, direct %d", i, merged.counts[i], one.counts[i])
		}
	}
}

// TestHistMergeRejectsMixedPrecision pins that histograms of different
// precision refuse to merge rather than silently mis-bucket.
func TestHistMergeRejectsMixedPrecision(t *testing.T) {
	if err := NewHist(7).Merge(NewHist(8)); err == nil {
		t.Fatal("merging mismatched precisions succeeded")
	}
}

// TestHistRecordAllocationFree asserts the record path performs zero heap
// allocations, in the style of stm's TestSteadyStateAllocationFree: the
// load generator records on every transaction, so an allocation here would
// both distort latencies and show up in every profile.
func TestHistRecordAllocationFree(t *testing.T) {
	h := NewHist(7)
	rng := xrand.New(3)
	vals := make([]int64, 128)
	for i := range vals {
		vals[i] = int64(rng.Uint64n(1 << 50))
	}
	var i int
	if n := testing.AllocsPerRun(100, func() {
		h.Record(vals[i&127])
		i++
	}); n != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", n)
	}
}

// TestHistQuantileClamps pins the q-domain contract on a populated
// histogram: q below 0 (and NaN, which fails every comparison) reports the
// minimum, q above 1 reports the maximum, and the boundary values behave as
// rank 1 and rank count. A driver interpolating quantile labels must never
// be able to turn a formatting slip into a panic or a wild value.
func TestHistQuantileClamps(t *testing.T) {
	h := NewHist(7)
	for v := int64(10); v <= 20; v++ {
		h.Record(v)
	}
	cases := []struct {
		name string
		q    float64
		want int64
	}{
		{"neg", -0.5, 10}, {"zero", 0, 10}, {"NaN", math.NaN(), 10},
		{"one", 1, 20}, {"above", 1.5, 20}, {"inf", math.Inf(1), 20},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%s) = %d, want %d", c.name, got, c.want)
		}
	}
	// The clamps hold on the empty histogram too: everything is 0.
	e := NewHist(7)
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := e.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
}

// TestHistEdgeCases covers the empty histogram, negative clamping, and the
// constructor's precision bounds.
func TestHistEdgeCases(t *testing.T) {
	h := NewHist(7)
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram reports nonzero summaries")
	}
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative record: min/max/count = %d/%d/%d, want 0/0/1", h.Min(), h.Max(), h.Count())
	}
	for _, bits := range []int{0, -1, histMaxBits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHist(%d) did not panic", bits)
				}
			}()
			NewHist(bits)
		}()
	}
}
