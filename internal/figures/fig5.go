package figures

import (
	"tmbp/internal/report"
	"tmbp/internal/sim"
	"tmbp/internal/stats"
)

// Fig5 regenerates Figure 5: closed-system conflict counts as a function of
// write footprint (a) and ownership table size (b), for <concurrency,
// table size> and <concurrency, write footprint> pairs. The paper plots
// these log-log; we report the fitted power-law slopes alongside the
// counts ("straight lines of the expected slopes").
func Fig5(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}

	a := report.New("Figure 5(a): conflicts vs write footprint (closed system)",
		append(append([]string{"C-N \\ W"}, intCols(Fig5aFootprints)...), "slope")...)
	for _, c := range Fig5Concurrency {
		for _, n := range Fig5Tables {
			row := []string{report.Int(c) + "-" + report.SI(n)}
			var ws, cs []float64
			for _, w := range Fig5aFootprints {
				res, err := sim.Closed(sim.Config{
					C: c, W: w, Alpha: o.Alpha, N: n,
					Kind: o.Kind, Trials: o.ClosedTrials, Seed: o.Seed,
				})
				if err != nil {
					return nil, err
				}
				row = append(row, report.F1(res.Conflicts))
				ws = append(ws, float64(w))
				cs = append(cs, res.Conflicts)
			}
			if fit, err := stats.LogLogSlope(ws, cs); err == nil {
				row = append(row, report.F2(fit.Slope))
			} else {
				row = append(row, "-")
			}
			a.Add(row...)
		}
	}
	a.Note("expected slope ~2 in the modest-conflict region (conflicts ∝ W²)")

	b := report.New("Figure 5(b): conflicts vs ownership table size (closed system)",
		append(append([]string{"C-W \\ N"}, siCols(Fig5bTables)...), "slope")...)
	for _, c := range Fig5Concurrency {
		for _, w := range Fig5bFootprints {
			row := []string{report.Int(c) + "-" + report.Int(w)}
			var ns, cs []float64
			for _, n := range Fig5bTables {
				res, err := sim.Closed(sim.Config{
					C: c, W: w, Alpha: o.Alpha, N: n,
					Kind: o.Kind, Trials: o.ClosedTrials, Seed: o.Seed,
				})
				if err != nil {
					return nil, err
				}
				row = append(row, report.F1(res.Conflicts))
				ns = append(ns, float64(n))
				cs = append(cs, res.Conflicts)
			}
			if fit, err := stats.LogLogSlope(ns, cs); err == nil {
				row = append(row, report.F2(fit.Slope))
			} else {
				row = append(row, "-")
			}
			b.Add(row...)
		}
	}
	b.Note("expected slope ~-1 (conflicts ∝ 1/N); separation shrinks where conflict rates are high")

	return []*report.Table{a, b}, nil
}
