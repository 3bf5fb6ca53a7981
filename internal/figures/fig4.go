package figures

import (
	"tmbp/internal/model"
	"tmbp/internal/report"
	"tmbp/internal/sim"
)

// Fig4 regenerates Figure 4: validation of the analytical model through
// lock-step statistical simulation. Panel (a) sweeps the write footprint
// against table sizes 512-4096 at C=2; panel (b) sweeps the paper's
// <concurrency, table size> clusters. Each measured cell is paired with
// the model's saturating prediction.
func Fig4(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}

	a := report.New("Figure 4(a): conflict likelihood vs write footprint (C=2, measured | model)",
		append([]string{"W \\ N"}, siCols(Fig4aTables)...)...)
	for _, w := range Fig4Footprints {
		row := []string{report.Int(w)}
		for _, n := range Fig4aTables {
			res, err := sim.Lockstep(sim.Config{
				C: 2, W: w, Alpha: o.Alpha, N: n,
				Kind: o.Kind, Trials: o.LockstepTrials, Seed: o.Seed,
			}, 0)
			if err != nil {
				return nil, err
			}
			m := model.Params{W: w, Alpha: float64(o.Alpha), C: 2, N: float64(n)}
			row = append(row, report.Pct(res.Rate)+" | "+report.Pct(m.SaturatingConflict()))
		}
		a.Add(row...)
	}
	a.Note("%d trials/point, alpha=%d; paper's spot check at W=8: 48%% / 27%% / 14%% / 7.7%%",
		o.LockstepTrials, o.Alpha)

	b := report.New("Figure 4(b): conflict likelihood for <C, N> clusters (measured | model)",
		append([]string{"C-N \\ W"}, intCols(Fig4Footprints)...)...)
	for _, pair := range Fig4bPairs {
		row := []string{report.Int(pair.C) + "-" + report.SI(pair.N)}
		for _, w := range Fig4Footprints {
			res, err := sim.Lockstep(sim.Config{
				C: pair.C, W: w, Alpha: o.Alpha, N: pair.N,
				Kind: o.Kind, Trials: o.LockstepTrials, Seed: o.Seed,
			}, 0)
			if err != nil {
				return nil, err
			}
			m := model.Params{W: w, Alpha: float64(o.Alpha), C: pair.C, N: float64(pair.N)}
			row = append(row, report.Pct(res.Rate)+"|"+report.Pct(m.SaturatingConflict()))
		}
		b.Add(row...)
	}
	b.Note("clusters quadruple N per doubling of C; lines within a cluster coincide asymptotically (C(C-1) term)")

	return []*report.Table{a, b}, nil
}
