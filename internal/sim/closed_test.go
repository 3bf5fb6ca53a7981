package sim

import (
	"math"
	"testing"

	"tmbp/internal/stats"
)

// TestConflictFreeBaseline: a huge table produces (almost) no conflicts and
// the full commit budget, and occupancy averages ~C·F/2.
func TestConflictFreeBaseline(t *testing.T) {
	cfg := Config{C: 4, W: 5, Alpha: 2, N: 1 << 22, Trials: 3, Seed: 11}
	res, err := Closed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts > 2 {
		t.Errorf("conflicts on a 4M-entry table = %v", res.Conflicts)
	}
	// Commit budget: 650 per thread, minus at most one partially-complete
	// transaction each.
	want := float64(650 * cfg.C)
	if res.Commits < want-float64(cfg.C)-2 || res.Commits > want+2 {
		t.Errorf("commits = %v, want ~%v", res.Commits, want)
	}
	// Paper: occupancy averages one-half the concurrency times footprint.
	wantOcc := float64(cfg.C) * float64(cfg.Footprint()) / 2
	if math.Abs(res.AvgOccupancy-wantOcc) > 0.15*wantOcc {
		t.Errorf("avg occupancy = %.1f, want ~%.1f", res.AvgOccupancy, wantOcc)
	}
	if math.Abs(res.ActualConcurrency-float64(cfg.C)) > 0.5 {
		t.Errorf("actual concurrency = %.2f, want ~%d", res.ActualConcurrency, cfg.C)
	}
}

// TestFigure5aSlope: conflicts vs W on a log-log plot has slope ~2 in the
// modest-conflict region (paper: "straight lines of the expected slopes").
func TestFigure5aSlope(t *testing.T) {
	var ws, conflicts []float64
	for _, w := range []int{5, 8, 12, 16} {
		res, err := Closed(Config{C: 2, W: w, Alpha: 2, N: 16384, Trials: 8, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, float64(w))
		conflicts = append(conflicts, res.Conflicts)
	}
	fit, err := stats.LogLogSlope(ws, conflicts)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 1.5 || fit.Slope > 2.5 {
		t.Errorf("conflicts-vs-W slope = %.2f (data %v), want ~2", fit.Slope, conflicts)
	}
}

// TestFigure5bSlope: conflicts vs N has slope ~−1.
func TestFigure5bSlope(t *testing.T) {
	var ns, conflicts []float64
	for _, n := range []uint64{1024, 2048, 4096, 8192, 16384} {
		res, err := Closed(Config{C: 2, W: 10, Alpha: 2, N: n, Trials: 8, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, float64(n))
		conflicts = append(conflicts, res.Conflicts)
	}
	fit, err := stats.LogLogSlope(ns, conflicts)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < -1.35 || fit.Slope > -0.65 {
		t.Errorf("conflicts-vs-N slope = %.2f (data %v), want ~-1", fit.Slope, conflicts)
	}
}

// TestFigure6ConcurrencyScaling: at modest conflict rates, conflicts scale
// like C(C−1) — between C=2 and C=4 a factor of ~6.
func TestFigure6ConcurrencyScaling(t *testing.T) {
	r2, err := Closed(Config{C: 2, W: 5, Alpha: 2, N: 16384, Trials: 10, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Closed(Config{C: 4, W: 5, Alpha: 2, N: 16384, Trials: 10, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Conflicts < 1 {
		t.Skipf("too few conflicts at C=2 (%v) for a stable ratio", r2.Conflicts)
	}
	ratio := r4.Conflicts / r2.Conflicts
	if ratio < 3.5 || ratio > 9.5 {
		t.Errorf("C=4/C=2 conflict ratio = %.2f (%.1f / %.1f), want ~6",
			ratio, r4.Conflicts, r2.Conflicts)
	}
}

// TestActualConcurrencyDepressedAtHighConflict reproduces the Figure 6
// observation: with a small table the high conflict rate reduces measured
// occupancy (hence actual concurrency) noticeably below the applied value.
func TestActualConcurrencyDepressedAtHighConflict(t *testing.T) {
	res, err := Closed(Config{C: 8, W: 20, Alpha: 2, N: 1024, Trials: 5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualConcurrency >= float64(8)*0.9 {
		t.Errorf("actual concurrency %.2f not depressed below applied %d despite abort rate %.2f",
			res.ActualConcurrency, 8, res.AbortRate)
	}
	if res.ActualConcurrency <= 0 {
		t.Errorf("actual concurrency %.2f must stay positive", res.ActualConcurrency)
	}
}

// TestTaggedClosedSystemConflictFree: the tagged organization removes all
// (false) conflicts from the same workload.
func TestTaggedClosedSystemConflictFree(t *testing.T) {
	res, err := Closed(Config{C: 4, W: 10, Alpha: 2, N: 1024, Kind: "tagged", Trials: 3, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicts != 0 {
		t.Errorf("tagged closed system had %.1f conflicts", res.Conflicts)
	}
	if res.Commits < float64(650*4-8) {
		t.Errorf("tagged commits = %.0f, want ~2600", res.Commits)
	}
}

// TestCommitsDropWithConflicts: in the closed system, time lost to aborts
// reduces throughput.
func TestCommitsDropWithConflicts(t *testing.T) {
	small, err := Closed(Config{C: 4, W: 20, Alpha: 2, N: 1024, Trials: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Closed(Config{C: 4, W: 20, Alpha: 2, N: 1 << 20, Trials: 5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if small.Commits >= big.Commits {
		t.Errorf("commits with 1k table (%.0f) should trail 1M table (%.0f)",
			small.Commits, big.Commits)
	}
	if small.Conflicts <= big.Conflicts {
		t.Errorf("conflicts with 1k table (%.0f) should exceed 1M table (%.0f)",
			small.Conflicts, big.Conflicts)
	}
}

func TestFootprintHelper(t *testing.T) {
	cfg := Config{C: 2, W: 10, Alpha: 2, N: 64}
	if got := cfg.Footprint(); got != 30 {
		t.Errorf("Footprint = %d, want 30", got)
	}
}
