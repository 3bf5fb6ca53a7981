package sim

import "testing"

// TestSuperlinearInFootprint: the headline Figure 2(a) trend — quadrupling
// W should much more than quadruple... at least strongly increase the rate.
func TestSuperlinearInFootprint(t *testing.T) {
	r10, err := Alias(Config{C: 2, W: 10, N: 1024, Trials: 1200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r40, err := Alias(Config{C: 2, W: 40, N: 1024, Trials: 1200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r40.Rate <= 2*r10.Rate {
		t.Errorf("W=40 rate (%.3f) not superlinear vs W=10 (%.3f)", r40.Rate, r10.Rate)
	}
}

// TestSublinearInTableSize: Figure 2(b) — a 4-fold table increase yields
// roughly a 3-fold alias reduction in the pre-asymptote region.
func TestSublinearInTableSize(t *testing.T) {
	small, err := Alias(Config{C: 2, W: 40, N: 1024, Trials: 1200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Alias(Config{C: 2, W: 40, N: 4096, Trials: 1200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ratio := small.Rate / big.Rate
	if ratio < 2 || ratio > 6 {
		t.Errorf("4x table reduced aliasing by %.1fx (%.3f -> %.3f), paper reports ~3x",
			ratio, small.Rate, big.Rate)
	}
}

// TestAsymptoteAtLargeTables: Figure 2(b)'s key observation — growing the
// table from 64k to 256k entries barely helps, because aligned-arena
// offsets collide at any table size (the floor survives).
func TestAsymptoteAtLargeTables(t *testing.T) {
	n64k, err := Alias(Config{C: 2, W: 80, N: 65536, Trials: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n256k, err := Alias(Config{C: 2, W: 80, N: 262144, Trials: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n256k.Rate <= 0.005 {
		t.Errorf("large-table alias floor vanished: %.4f at 256k", n256k.Rate)
	}
	ratio := n64k.Rate / n256k.Rate
	if ratio > 3 {
		t.Errorf("64k->256k reduced aliasing %.1fx; the asymptote should cap this below ~3x", ratio)
	}
}

// TestConcurrencyFactor: Figure 2(c) — C=2→4 increases the rate by
// roughly C(C−1) = 6.
func TestConcurrencyFactor(t *testing.T) {
	c2, err := Alias(Config{C: 2, W: 40, N: 65536, Trials: 2500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	c4, err := Alias(Config{C: 4, W: 40, N: 65536, Trials: 2500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Rate == 0 {
		t.Skip("no aliases at C=2; raise samples")
	}
	ratio := c4.Rate / c2.Rate
	if ratio < 3.5 || ratio > 11 {
		t.Errorf("C=2→4 alias ratio = %.1f (%.4f -> %.4f), paper reports ~6",
			ratio, c2.Rate, c4.Rate)
	}
}

// TestTaggedTableEliminatesAliases: the same streams against a tagged
// table never conflict (true conflicts were filtered; everything left is
// aliasing, which tags resolve).
func TestTaggedTableEliminatesAliases(t *testing.T) {
	res, err := Alias(Config{C: 4, W: 40, N: 1024, Kind: "tagged", Trials: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aliased != 0 {
		t.Errorf("tagged table aliased in %d trials", res.Aliased)
	}
}

// TestStrongHashRemovesAsymptote: the hash ablation — Fibonacci hashing
// breaks the aligned-offset structure, so the large-table floor drops well
// below the mask hash's.
func TestStrongHashRemovesAsymptote(t *testing.T) {
	mask, err := Alias(Config{C: 2, W: 80, N: 262144, Hash: "mask", Trials: 1500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := Alias(Config{C: 2, W: 80, N: 262144, Hash: "fibonacci", Trials: 1500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if fib.Rate >= mask.Rate {
		t.Errorf("fibonacci floor (%.4f) not below mask floor (%.4f)", fib.Rate, mask.Rate)
	}
}

func TestTrueConflictFilterActive(t *testing.T) {
	res, err := Alias(Config{C: 4, W: 20, N: 65536, Trials: 200, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueConflictsRemoved <= 0 {
		t.Error("no true conflicts were removed; shared region should produce some")
	}
}

func TestMeanWriteAtAliasInRange(t *testing.T) {
	res, err := Alias(Config{C: 2, W: 20, N: 1024, Trials: 800, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aliased == 0 {
		t.Skip("no aliases")
	}
	if res.MeanWriteAtAlias < 1 || res.MeanWriteAtAlias > 21 {
		t.Errorf("mean write at alias = %.1f outside [1, 21]", res.MeanWriteAtAlias)
	}
}
