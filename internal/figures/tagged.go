package figures

import (
	"tmbp/internal/addr"
	"tmbp/internal/hash"
	"tmbp/internal/otable"
	"tmbp/internal/report"
	"tmbp/internal/sim"
	"tmbp/internal/xrand"
)

// Tagged regenerates the Section 5 characterization of the tagged
// ownership table: zero false conflicts on the workloads that abort
// heavily under the tagless design, and short expected chains at sane load
// factors (the basis for the paper's claim that the tag/chain overheads
// are negligible in the common case).
func Tagged(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}

	cmp := report.New("Section 5: tagless vs tagged conflict rates (lock-step workload)",
		"C", "W", "N", "tagless", "tagged")
	for _, cfg := range []struct {
		c, w int
		n    uint64
	}{
		{2, 8, 512}, {2, 20, 4096}, {4, 10, 4096}, {4, 20, 16384}, {8, 20, 65536},
	} {
		tl, err := sim.Lockstep(sim.Config{
			C: cfg.c, W: cfg.w, Alpha: o.Alpha, N: cfg.n,
			Kind: "tagless", Trials: o.LockstepTrials, Seed: o.Seed,
		}, 0)
		if err != nil {
			return nil, err
		}
		tg, err := sim.Lockstep(sim.Config{
			C: cfg.c, W: cfg.w, Alpha: o.Alpha, N: cfg.n,
			Kind: "tagged", Trials: o.LockstepTrials, Seed: o.Seed,
		}, 0)
		if err != nil {
			return nil, err
		}
		cmp.Add(report.Int(cfg.c), report.Int(cfg.w), report.SI(cfg.n),
			report.Pct(tl.Rate), report.Pct(tg.Rate))
	}
	cmp.Note("every conflict in this workload is false (random disjoint blocks); tags eliminate them all")

	chains := report.New("Section 5: tagged-table chain lengths vs load factor",
		"records/buckets", "buckets empty", "chain=1", "chain=2", "chain>=3", "max chain")
	for _, load := range []float64{0.25, 0.5, 1.0, 2.0} {
		const n = 4096
		tab := otable.NewTagged(hash.NewMask(n))
		fp := otable.NewFootprint(tab, 1)
		rng := xrand.New(o.Seed)
		records := int(load * n)
		for i := 0; i < records; i++ {
			fp.Write(addr.Block(rng.Uint64n(sim.BlockSpace)))
		}
		lengths := tab.ChainLengths()
		var empty, one, two, more uint64
		for k, cnt := range lengths {
			switch {
			case k == 0:
				empty += cnt
			case k == 1:
				one += cnt
			case k == 2:
				two += cnt
			default:
				more += cnt
			}
		}
		chains.Add(report.F2(load),
			report.Pct(float64(empty)/n), report.Pct(float64(one)/n),
			report.Pct(float64(two)/n), report.Pct(float64(more)/n),
			report.U64(tab.Stats().MaxChain))
		fp.ReleaseAll()
	}
	chains.Note("at load factors below 1 the overwhelming majority of buckets hold 0 or 1 records (no chaining cost)")

	return []*report.Table{cmp, chains}, nil
}
