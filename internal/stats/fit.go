package stats

import (
	"fmt"
	"math"
)

// LinearFit is an ordinary least-squares fit y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// FitLinear computes the least-squares line through (x[i], y[i]). It returns
// an error if fewer than two points are given or x has no variance.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs >= 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear x values are constant")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         len(x),
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1 // all y equal: the fit is exact (slope 0)
	}
	return fit, nil
}

// LogLogSlope fits log(y) against log(x) and returns the slope — the
// empirical power-law exponent. Points with non-positive x or y are
// skipped (a conflict count of zero carries no slope information on a
// log-log plot). It errors if fewer than two usable points remain.
//
// This is the quantitative form of "straight lines of the expected slopes"
// from the paper's Figure 5 discussion: conflicts vs W should fit slope ≈ 2,
// conflicts vs N slope ≈ −1.
func LogLogSlope(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: LogLogSlope length mismatch %d vs %d", len(x), len(y))
	}
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	return FitLinear(lx, ly)
}
