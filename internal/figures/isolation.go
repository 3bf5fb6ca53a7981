package figures

import (
	"tmbp/internal/report"
	"tmbp/internal/sim"
)

// Isolation quantifies the paper's closing observation (Section 6): under
// strong isolation even non-transactional threads probe the ownership
// table, and the added lookup concurrency makes tagless tables "even more
// untenable". The table sweeps the number of non-transactional threads for
// fixed transactional configurations.
func Isolation(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := report.New("Section 6: strong isolation — conflict likelihood vs non-transactional threads",
		"C-W-N", "NT=0", "NT=2", "NT=4", "NT=8", "NT=16")
	for _, cfg := range []struct {
		c, w int
		n    uint64
	}{
		{2, 10, 4096}, {2, 20, 16384}, {4, 10, 16384}, {4, 20, 65536},
	} {
		row := []string{report.Int(cfg.c) + "-" + report.Int(cfg.w) + "-" + report.SI(cfg.n)}
		for _, nt := range []int{0, 2, 4, 8, 16} {
			res, err := sim.Lockstep(sim.Config{
				C: cfg.c, W: cfg.w, Alpha: o.Alpha, N: cfg.n,
				Kind: o.Kind, Trials: o.LockstepTrials, Seed: o.Seed,
			}, nt)
			if err != nil {
				return nil, err
			}
			row = append(row, report.Pct(res.Rate))
		}
		t.Add(row...)
	}
	t.Note("each NT thread performs one probe (acquire+release) per block step; probes denied by a transaction's entry are conflicts")
	t.Note("a tagged table runs the same workload conflict-free: probes of distinct addresses never collide")
	return []*report.Table{t}, nil
}
