package sim

import (
	"testing"
	"testing/quick"
)

// TestCommitBudgetInvariant: commits can never exceed the conflict-free
// budget of C·commitsPerThread, and attempts (commits+conflicts) are
// bounded by the number of simulated steps.
func TestCommitBudgetInvariant(t *testing.T) {
	check := func(seed uint64, cRaw, wRaw uint8) bool {
		c := int(cRaw%4)*2 + 2 // 2,4,6,8
		w := int(wRaw%16) + 2
		cfg := Config{
			C: c, W: w, Alpha: 2, N: 1024,
			Trials: 1, Seed: seed,
		}
		res, err := Closed(cfg)
		if err != nil {
			return false
		}
		budget := float64(commitsPerThread * c)
		if res.Commits > budget {
			t.Logf("commits %v exceed budget %v", res.Commits, budget)
			return false
		}
		steps := float64(commitsPerThread * cfg.Footprint() * c)
		if res.Commits+res.Conflicts > steps {
			t.Logf("attempts %v exceed step budget %v", res.Commits+res.Conflicts, steps)
			return false
		}
		return res.AvgOccupancy >= 0 && res.ActualConcurrency >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestActualConcurrencyBounded: actual concurrency cannot exceed applied
// concurrency by more than sampling noise.
func TestActualConcurrencyBounded(t *testing.T) {
	for _, c := range []int{2, 4, 8} {
		res, err := Closed(Config{C: c, W: 10, Alpha: 2, N: 1 << 20, Trials: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.ActualConcurrency > float64(c)*1.05 {
			t.Errorf("C=%d: actual concurrency %.2f exceeds applied", c, res.ActualConcurrency)
		}
	}
}

// TestAbortRateConsistent: AbortRate equals conflicts/(conflicts+commits).
func TestAbortRateConsistent(t *testing.T) {
	res, err := Closed(Config{C: 4, W: 10, Alpha: 2, N: 1024, Trials: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Conflicts / (res.Conflicts + res.Commits)
	if diff := res.AbortRate - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("AbortRate = %v, want %v", res.AbortRate, want)
	}
}
