package figures

import (
	"tmbp/internal/report"
	"tmbp/internal/sim"
)

// Fig2 regenerates Figure 2: trace-driven alias likelihood as a function of
// data footprint (a), ownership table size (b), and concurrency (c), using
// the synthetic warehouse workload in place of the paper's SPECJBB traces.
func Fig2(o Options) ([]*report.Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}

	// Panels (a) and (b) share one N×W sweep at C=2; they are the same
	// data keyed two ways, exactly as in the paper.
	rates := make(map[uint64]map[int]float64, len(Fig2Tables))
	for _, n := range Fig2Tables {
		rates[n] = make(map[int]float64, len(Fig2Footprints))
		for _, w := range Fig2Footprints {
			res, err := sim.Alias(sim.Config{
				C: 2, W: w, N: n,
				Kind: o.Kind, Hash: o.Hash,
				Trials: o.Samples, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
			rates[n][w] = res.Rate
		}
	}

	a := report.New("Figure 2(a): alias likelihood vs write footprint (C=2)",
		append([]string{"W \\ N"}, siCols(Fig2Tables)...)...)
	for _, w := range Fig2Footprints {
		row := []string{report.Int(w)}
		for _, n := range Fig2Tables {
			row = append(row, report.Pct(rates[n][w]))
		}
		a.Add(row...)
	}
	a.Note("workload: synthetic warehouse streams (SPECJBB2005 stand-in), %d samples/point, hash=%s", o.Samples, o.Hash)

	b := report.New("Figure 2(b): alias likelihood vs ownership table size (C=2)",
		append([]string{"N \\ W"}, intCols(Fig2Footprints)...)...)
	for _, n := range Fig2Tables {
		row := []string{report.SI(n)}
		for _, w := range Fig2Footprints {
			row = append(row, report.Pct2(rates[n][w]))
		}
		b.Add(row...)
	}
	b.Note("same data as (a); note the sublinear reduction and the large-table asymptote")

	c := report.New("Figure 2(c): alias likelihood vs concurrency (N=64k)",
		append([]string{"C \\ W"}, intCols(Fig2PanelCFootprints)...)...)
	for _, cc := range Fig2Concurrency {
		row := []string{report.Int(cc)}
		for _, w := range Fig2PanelCFootprints {
			res, err := sim.Alias(sim.Config{
				C: cc, W: w, N: Fig2PanelCN,
				Kind: o.Kind, Hash: o.Hash,
				Trials: o.Samples, Seed: o.Seed,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, report.Pct2(res.Rate))
		}
		c.Add(row...)
	}
	c.Note("paper: concurrency 4 shows an almost 6-fold larger conflict rate than concurrency 2")

	return []*report.Table{a, b, c}, nil
}

func siCols(ns []uint64) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = report.SI(n)
	}
	return out
}

func intCols(ws []int) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = "W=" + report.Int(w)
	}
	return out
}
