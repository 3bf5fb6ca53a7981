package sim

import (
	"tmbp/internal/otable"
	"tmbp/internal/stats"
	"tmbp/internal/xrand"
)

// commitsPerThread sets the closed system's simulated duration: a run lasts
// exactly commitsPerThread·F steps (F = blocks per transaction), so each
// thread completes commitsPerThread transactions when no conflicts occur,
// as in the paper's runs. Fixing *time* rather than total commits is what
// makes conflicts scale as C(C−1) in Figure 6: both the number of attempts
// and the per-attempt hazard grow with C.
const commitsPerThread = 650

// ClosedResult aggregates the closed-system runs of one configuration.
type ClosedResult struct {
	// Conflicts is the mean number of aborts per run — the y-axis of
	// Figures 5 and 6.
	Conflicts float64
	// Commits is the mean number of committed transactions per run, summed
	// across threads (equals C·650 when no conflicts occur, lower
	// otherwise).
	Commits float64
	// AbortRate is Conflicts / (Conflicts + Commits): per-attempt abort
	// probability.
	AbortRate float64
	// AvgOccupancy is the time-averaged number of filled table entries.
	AvgOccupancy float64
	// ActualConcurrency is AvgOccupancy / (F/2): the effective concurrency
	// after conflict-induced footprint loss (Figure 6(b)'s x-axis).
	ActualConcurrency float64
}

// Closed runs the closed system of Section 4: C threads execute
// fixed-size transactions back to back for a fixed simulated time. Start
// times are randomly staggered, relaxing the model's lock-step assumption;
// a conflicting transaction releases its entries and restarts. The
// measured average occupancy gives the *actual* concurrency behind
// Figure 6(b): with infrequent conflicts it averages C·F/2, and high
// conflict rates depress it.
func Closed(cfg Config) (ClosedResult, error) {
	tab, fps, err := setup(cfg)
	if err != nil {
		return ClosedResult{}, err
	}

	rng := xrand.New(cfg.Seed)
	var conflicts, commits, occupancy stats.Sample
	for trial := 0; trial < cfg.Trials; trial++ {
		tr := closedTrial(cfg, tab, fps, rng.Split())
		conflicts.Add(float64(tr.conflicts))
		commits.Add(float64(tr.commits))
		occupancy.Add(tr.avgOccupancy)
	}

	res := ClosedResult{
		Conflicts:    conflicts.Mean(),
		Commits:      commits.Mean(),
		AvgOccupancy: occupancy.Mean(),
	}
	if att := res.Conflicts + res.Commits; att > 0 {
		res.AbortRate = res.Conflicts / att
	}
	res.ActualConcurrency = res.AvgOccupancy / (float64(cfg.Footprint()) / 2)
	return res, nil
}

// closedRun carries one run's counters.
type closedRun struct {
	conflicts    int
	commits      int
	avgOccupancy float64
}

// closedTrial simulates one run of commitsPerThread·F steps.
func closedTrial(cfg Config, tab otable.Table, fps []*otable.Footprint, rng *xrand.Rand) closedRun {
	f := cfg.Footprint()
	steps := commitsPerThread * f
	added := make([]int, len(fps)) // block additions in each thread's current attempt
	idle := make([]int, len(fps))  // stagger steps left before each thread starts
	for i := range idle {
		idle[i] = rng.Intn(f)
	}
	var tr closedRun
	var occSum uint64
	for step := 0; step < steps; step++ {
		for i, fp := range fps {
			if idle[i] > 0 {
				idle[i]--
				continue
			}
			// Position within the [α reads, 1 write] pattern: writes land
			// at the end of each round.
			isWrite := cfg.Alpha == 0 || added[i]%(cfg.Alpha+1) == cfg.Alpha
			if access(fp, randomBlock(rng), isWrite).Conflict() {
				// Abort: remove the transaction's entries and restart it.
				tr.conflicts++
				fp.ReleaseAll()
				added[i] = 0
				continue
			}
			added[i]++
			if added[i] == f {
				// Commit: release entries and begin the next transaction.
				tr.commits++
				fp.ReleaseAll()
				added[i] = 0
			}
		}
		occSum += tab.Occupied()
	}
	// Drain remaining footprints so the table is clean for the next trial.
	for _, fp := range fps {
		fp.ReleaseAll()
	}
	tr.avgOccupancy = float64(occSum) / float64(steps)
	return tr
}
