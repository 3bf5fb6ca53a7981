package figures

import (
	"tmbp/internal/cache"
	"tmbp/internal/hash"
	"tmbp/internal/overflow"
	"tmbp/internal/report"
	"tmbp/internal/sim"
	"tmbp/internal/trace"
)

// Ablations regenerates the design-choice studies beyond the paper's own
// figures (the tmbp ablation subcommand):
//
//   - victim-buffer depth: the paper evaluates depth 1; sweeping 0-8 shows
//     the diminishing returns of catching conflict misses in hardware;
//   - hash function: the large-table alias asymptote of Figure 2(b) is a
//     property of stride-preserving hashing — Fibonacci hashing removes it,
//     confirming the paper's diagnosis that correlated addresses (not
//     random collisions) cause the floor. Full avalanche mixing also
//     removes the floor but *raises* aliasing at moderate table sizes: it
//     splits each object's contiguous blocks into independent birthday
//     trials, while locality-preserving hashes keep a whole object to one
//     run of entries;
//   - hash quality diagnostics backing the same conclusion.
func Ablations(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}

	victims, err := victimSweep(o)
	if err != nil {
		return nil, err
	}
	hashes, err := hashAblation(o)
	if err != nil {
		return nil, err
	}
	quality := hashQuality()
	return []*report.Table{victims, hashes, quality}, nil
}

// victimSweep generalizes Figure 3's single victim buffer to depth 0-8.
func victimSweep(o Options) (*report.Table, error) {
	t := report.New("Ablation: victim buffer depth (Figure 3 generalized)",
		"victim entries", "avg footprint", "cache util", "avg instrs(K)", "footprint gain", "instr gain")
	var base overflow.SuiteResult
	for _, v := range []int{0, 1, 2, 4, 8} {
		res, err := overflow.RunSuite(trace.SpecProfiles(), overflow.Config{
			Cache: cache.Default32K(v), Traces: o.Traces, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		if v == 0 {
			base = res
		}
		t.Add(report.Int(v),
			report.F1(res.AvgBlocks),
			report.Pct(res.Utilization()),
			report.F1(res.AvgInstrs/1000),
			report.Pct(res.AvgBlocks/base.AvgBlocks-1),
			report.Pct(res.AvgInstrs/base.AvgInstrs-1))
	}
	t.Note("the paper evaluates depth 1 (+16%% footprint, +30%% instructions); returns diminish with depth")
	return t, nil
}

// hashAblation reruns the Figure 2(b) large-table points under each hash.
func hashAblation(o Options) (*report.Table, error) {
	t := report.New("Ablation: address hash vs the large-table alias floor (C=2, W=80)",
		"N", "mask", "fibonacci", "mix")
	for _, n := range []uint64{16384, 65536, 262144} {
		row := []string{report.SI(n)}
		for _, h := range []string{"mask", "fibonacci", "mix"} {
			res, err := sim.Alias(sim.Config{
				C: 2, W: 80, N: n, Hash: h, Kind: o.Kind,
				Trials: o.Samples, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, report.Pct2(res.Rate))
		}
		t.Add(row...)
	}
	t.Note("mask preserves address structure: same-offset arena blocks collide at any N (the floor)")
	t.Note("fibonacci scrambles that structure but keeps each object's run compact (fixed output stride), lowering both the floor and the birthday hazard")
	t.Note("mix removes the floor too but scatters each object's blocks into independent trials, inflating aliasing at moderate N")
	return t, nil
}

// hashQuality reports the structural diagnostics that explain the ablation.
func hashQuality() *report.Table {
	t := report.New("Hash diagnostics (64k-entry table)",
		"hash", "avalanche", "stride preservation")
	const n = 65536
	for _, name := range hash.Names() {
		f, err := hash.New(name, n)
		if err != nil {
			continue
		}
		t.Add(name,
			report.F2(hash.AvalancheScore(f, 50, 1)),
			report.F2(hash.StridePreservation(f, 0x40000, 4096)))
	}
	t.Note("stride preservation 1.0 = consecutive blocks map to consecutive entries (the paper's Section 4 observation)")
	return t
}
