// Package figures regenerates every table and figure of the paper's
// evaluation, one function per figure, returning render-ready tables. It is
// the engine behind the tmbp command's figure subcommands.
//
// Each function sweeps the same parameter grids as the paper:
//
//	Fig2   — trace-driven alias likelihood: N×W grid at C=2 (panels a, b)
//	         and C×W grid at N=64k (panel c).
//	Fig3   — HTM overflow footprints and instruction counts for the twelve
//	         benchmark profiles, without and with a victim buffer.
//	Fig4   — lock-step statistical simulation vs the analytical model.
//	Fig5   — closed-system conflicts vs footprint (a) and table size (b).
//	Fig6   — closed-system conflicts vs applied (a) and actual (b)
//	         concurrency.
//	Sizing — the back-of-envelope table-size requirements of Sections
//	         3.1-3.2.
//	Tagged — the Section 5 tagged-table characterization.
package figures

import (
	"fmt"

	"tmbp/internal/report"
)

// Options tune experiment cost and reproducibility. The zero value plus
// Paper() or Quick() gives the standard presets.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Samples is the per-point trial count for the trace-driven Figure 2
	// study (paper: ~10,000).
	Samples int
	// LockstepTrials is the per-point trial count for Figure 4
	// (paper: 1000).
	LockstepTrials int
	// ClosedTrials is the number of independent closed-system runs
	// averaged per point for Figures 5 and 6.
	ClosedTrials int
	// Traces is the per-benchmark trace count for Figure 3 (paper: >= 20).
	Traces int
	// Alpha is the read-to-write ratio for the synthetic simulations
	// (paper: 2).
	Alpha int
	// Hash selects the address hash for the trace-driven study.
	Hash string
	// Kind selects the ownership-table organization under test.
	Kind string
}

// Paper returns the full-fidelity preset matching the paper's sample
// counts. Figure 2 at this preset takes a few CPU-minutes.
func Paper(seed uint64) Options {
	return Options{
		Seed:           seed,
		Samples:        10000,
		LockstepTrials: 1000,
		ClosedTrials:   5,
		Traces:         20,
		Alpha:          2,
		Hash:           "mask",
		Kind:           "tagless",
	}
}

// Quick returns a reduced preset for smoke runs and benchmarks: the same
// grids at roughly 10% of the sampling cost.
func Quick(seed uint64) Options {
	o := Paper(seed)
	o.Samples = 1000
	o.LockstepTrials = 300
	o.ClosedTrials = 3
	o.Traces = 8
	return o
}

func (o Options) validate() error {
	if o.Samples < 1 || o.LockstepTrials < 1 || o.ClosedTrials < 1 || o.Traces < 1 {
		return fmt.Errorf("figures: sample counts must be positive: %+v", o)
	}
	if o.Alpha < 0 {
		return fmt.Errorf("figures: alpha = %d must be >= 0", o.Alpha)
	}
	return nil
}

// Grid constants: the exact parameter sets of the paper's evaluation.
var (
	// Fig2Tables is the ownership-table sweep of Figure 2(a,b).
	Fig2Tables = []uint64{1024, 4096, 16384, 65536, 262144}
	// Fig2Footprints is the write-footprint sweep of Figure 2.
	Fig2Footprints = []int{5, 10, 20, 40, 80}
	// Fig2Concurrency is the concurrency sweep of Figure 2(c).
	Fig2Concurrency = []int{2, 3, 4}
	// Fig2PanelCN is the table size for Figure 2(c).
	Fig2PanelCN = uint64(65536)
	// Fig2PanelCFootprints is the footprint sweep for Figure 2(c).
	Fig2PanelCFootprints = []int{5, 10, 20, 40}

	// Fig4aTables is the table sweep of Figure 4(a) at C=2.
	Fig4aTables = []uint64{512, 1024, 2048, 4096}
	// Fig4Footprints is the write-footprint sweep of Figure 4 (the paper
	// plots 0-50 continuously; we sample the same range).
	Fig4Footprints = []int{4, 8, 16, 24, 32, 40, 50}
	// Fig4bPairs is Figure 4(b)'s <concurrency, table size> grid: three
	// clusters in which N quadruples per doubling of C.
	Fig4bPairs = []struct {
		C int
		N uint64
	}{
		{2, 256}, {4, 1024}, {8, 4096},
		{2, 1024}, {4, 4096}, {8, 16384},
		{2, 4096}, {4, 16384}, {8, 65536},
	}

	// Fig5Concurrency, Fig5Tables, Fig5Footprints are the closed-system
	// grids of Figure 5.
	Fig5Concurrency = []int{2, 4, 8}
	Fig5Tables      = []uint64{1024, 4096, 16384}
	Fig5aFootprints = []int{8, 16}
	Fig5bTables     = []uint64{1024, 2048, 4096, 8192, 16384}
	Fig5bFootprints = []int{5, 10, 20}

	// Fig6Footprints is Figure 6's footprint grid.
	Fig6Footprints = []int{5, 10, 20}
)

// All runs every figure at the given options and returns the tables in
// paper order.
func All(o Options) ([]*report.Table, error) {
	var out []*report.Table
	steps := []func(Options) ([]*report.Table, error){
		Fig2, Fig3, Sizing, Fig4, Fig5, Fig6, Tagged, Isolation, Ablations,
	}
	for _, step := range steps {
		tables, err := step(o)
		if err != nil {
			return nil, err
		}
		out = append(out, tables...)
	}
	return out, nil
}
