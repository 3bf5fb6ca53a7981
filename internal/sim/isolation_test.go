package sim

import "testing"

func TestNTValidation(t *testing.T) {
	if _, err := Lockstep(Config{C: 2, W: 5, N: 64, Trials: 1}, -1); err == nil {
		t.Error("negative NT thread count accepted")
	}
}

// TestNTProbesIncreaseConflicts: strong isolation's extra lookups raise the
// conflict likelihood monotonically with the NT thread count (Section 6).
func TestNTProbesIncreaseConflicts(t *testing.T) {
	base := Config{C: 2, W: 10, Alpha: 2, N: 4096, Trials: 3000, Seed: 7}
	prev := -1.0
	for _, nt := range []int{0, 4, 16} {
		res, err := Lockstep(base, nt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rate < prev {
			t.Errorf("NT=%d rate %.4f below NT-smaller rate %.4f", nt, res.Rate, prev)
		}
		prev = res.Rate
	}
	if prev < 0.01 {
		t.Errorf("16 NT threads produced almost no conflicts (%.4f); probes seem inert", prev)
	}
}

// TestNTProbesLeaveTableClean: probes must not leak permissions — the
// table must drain to empty after the last trial.
func TestNTProbesLeaveTableClean(t *testing.T) {
	res, err := Lockstep(Config{C: 2, W: 20, Alpha: 2, N: 1024, Trials: 200, Seed: 11}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalOccupied != 0 {
		t.Errorf("table occupancy after all trials = %d; probes leaked permissions", res.FinalOccupied)
	}
}

// TestNTProbesOnTaggedTableHarmless: with tags, probes of distinct random
// blocks never conflict.
func TestNTProbesOnTaggedTableHarmless(t *testing.T) {
	res, err := Lockstep(Config{C: 4, W: 20, Alpha: 2, N: 1024, Kind: "tagged", Trials: 300, Seed: 13}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Conflicted != 0 {
		t.Errorf("tagged table conflicted %d times under NT probes", res.Conflicted)
	}
}
