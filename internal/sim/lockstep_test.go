package sim

import (
	"math"
	"testing"

	"tmbp/internal/model"
)

// TestFigure4aAnchor reproduces the paper's Figure 4(a) spot values: at
// W=8, α=2, C=2 the conflict likelihood ladder for N=512/1024/2048/4096 is
// 48% / 27% / 14% / 7.7%.
func TestFigure4aAnchor(t *testing.T) {
	want := map[uint64]float64{512: 0.48, 1024: 0.27, 2048: 0.14, 4096: 0.077}
	for n, target := range want {
		res, err := Lockstep(Config{C: 2, W: 8, Alpha: 2, N: n, Trials: 3000, Seed: 42}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Rate-target) > 0.035 {
			t.Errorf("N=%d: rate = %.3f, paper measured %.3f", n, res.Rate, target)
		}
	}
}

// TestMatchesSaturatingModel sweeps several configurations and checks the
// measured rate lies near the model's saturating prediction.
func TestMatchesSaturatingModel(t *testing.T) {
	cases := []Config{
		{C: 2, W: 5, Alpha: 2, N: 1024},
		{C: 2, W: 20, Alpha: 2, N: 4096},
		{C: 3, W: 10, Alpha: 2, N: 4096},
		{C: 4, W: 10, Alpha: 1, N: 8192},
		{C: 8, W: 5, Alpha: 2, N: 16384},
	}
	for _, cfg := range cases {
		cfg.Trials = 2500
		cfg.Seed = 99
		res, err := Lockstep(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := model.Params{W: cfg.W, Alpha: float64(cfg.Alpha), C: cfg.C, N: float64(cfg.N)}
		want := p.SaturatingConflict()
		if math.Abs(res.Rate-want) > 0.05 {
			t.Errorf("%+v: measured %.3f, model %.3f", cfg, res.Rate, want)
		}
	}
}

// TestConcurrencyFactorOfSix: C=2→4 multiplies the (small) conflict rate by
// ~6, the paper's headline C(C−1) prediction.
func TestConcurrencyFactorOfSix(t *testing.T) {
	base := Config{W: 5, Alpha: 2, N: 65536, Trials: 20000, Seed: 11}
	c2 := base
	c2.C = 2
	r2, err := Lockstep(c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	c4 := base
	c4.C = 4
	r4, err := Lockstep(c4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rate == 0 {
		t.Skip("no conflicts at C=2; raise trials")
	}
	ratio := r4.Rate / r2.Rate
	if ratio < 4.2 || ratio > 8.2 {
		t.Errorf("C=4/C=2 conflict ratio = %.2f (rates %.4f / %.4f), want ~6",
			ratio, r4.Rate, r2.Rate)
	}
}

// TestQuadraticFootprintScaling: doubling W roughly quadruples small rates.
func TestQuadraticFootprintScaling(t *testing.T) {
	base := Config{C: 2, Alpha: 2, N: 65536, Trials: 20000, Seed: 13}
	w5 := base
	w5.W = 5
	r5, err := Lockstep(w5, 0)
	if err != nil {
		t.Fatal(err)
	}
	w10 := base
	w10.W = 10
	r10, err := Lockstep(w10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Rate == 0 {
		t.Skip("no conflicts at W=5")
	}
	ratio := r10.Rate / r5.Rate
	if ratio < 2.7 || ratio > 5.6 {
		t.Errorf("W=10/W=5 conflict ratio = %.2f, want ~4", ratio)
	}
}

// TestTaggedTableNeverConflicts: same workload, tagged organization —
// random distinct blocks produce no conflicts at all (Section 5).
func TestTaggedTableNeverConflicts(t *testing.T) {
	res, err := Lockstep(Config{C: 4, W: 20, Alpha: 2, N: 1024, Kind: "tagged", Trials: 500, Seed: 17}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicted != 0 {
		t.Errorf("tagged table conflicted in %d/%d trials", res.Conflicted, 500)
	}
}

// TestIntraAliasRateSmall validates the paper's Section 4 measurement: the
// intra-transaction aliasing rate stays below 3% while conflict rate < 50%.
func TestIntraAliasRateSmall(t *testing.T) {
	res, err := Lockstep(Config{C: 2, W: 8, Alpha: 2, N: 512, Trials: 2000, Seed: 19}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate > 0.55 {
		t.Skipf("conflict rate %.2f above the paper's 50%% region", res.Rate)
	}
	if res.IntraAliasRate >= 0.03 {
		t.Errorf("intra-transaction alias rate = %.4f, paper bounds it below 3%%", res.IntraAliasRate)
	}
}

// TestWilsonIntervalCoversRate sanity-checks the reported interval.
func TestWilsonIntervalCoversRate(t *testing.T) {
	res, err := Lockstep(Config{C: 2, W: 10, Alpha: 2, N: 2048, Trials: 500, Seed: 23}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rate < res.RateLo || res.Rate > res.RateHi {
		t.Errorf("rate %.3f outside its own interval [%.3f, %.3f]", res.Rate, res.RateLo, res.RateHi)
	}
}

// TestMeanConflictStepWithinFootprint: first conflicts happen at a write
// index within [1, W].
func TestMeanConflictStepWithinFootprint(t *testing.T) {
	res, err := Lockstep(Config{C: 2, W: 16, Alpha: 2, N: 512, Trials: 1000, Seed: 29}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicted == 0 {
		t.Skip("no conflicts observed")
	}
	if res.MeanConflictStep < 1 || res.MeanConflictStep > 16 {
		t.Errorf("mean conflict step = %.2f outside [1, 16]", res.MeanConflictStep)
	}
}
