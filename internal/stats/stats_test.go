package stats

import (
	"math"
	"testing"
	"testing/quick"

	"tmbp/internal/xrand"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic dataset is 32/7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleSingle(t *testing.T) {
	var s Sample
	s.Add(3.5)
	if s.Variance() != 0 {
		t.Errorf("single-point variance = %v", s.Variance())
	}
	if s.Min() != 3.5 || s.Max() != 3.5 {
		t.Error("single-point min/max wrong")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 2
		r := xrand.New(seed)
		var s Sample
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*100 - 50
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		varsum := 0.0
		for _, x := range xs {
			varsum += (x - mean) * (x - mean)
		}
		naiveVar := varsum / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Variance()-naiveVar) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	for i := 0; i < 100; i++ {
		p.Record(i < 30)
	}
	if p.Rate() != 0.3 {
		t.Fatalf("Rate = %v", p.Rate())
	}
	lo, hi := p.Wilson95()
	if lo >= 0.3 || hi <= 0.3 {
		t.Fatalf("Wilson interval [%v, %v] does not contain the point estimate", lo, hi)
	}
	if lo < 0.2 || hi > 0.42 {
		t.Fatalf("Wilson interval [%v, %v] implausibly wide for n=100", lo, hi)
	}
}

func TestProportionEdge(t *testing.T) {
	var p Proportion
	lo, hi := p.Wilson95()
	if lo != 0 || hi != 1 {
		t.Errorf("empty proportion interval = [%v, %v]", lo, hi)
	}
	for i := 0; i < 50; i++ {
		p.Record(true)
	}
	lo, hi = p.Wilson95()
	if hi != 1 || lo < 0.9 {
		t.Errorf("all-success interval = [%v, %v]", lo, hi)
	}
}

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, err := FitLinear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("constant x should error")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestLogLogSlopeRecoversPowerLaw(t *testing.T) {
	// y = 3 x^2 should fit slope 2 exactly.
	var x, y []float64
	for _, v := range []float64{1, 2, 4, 8, 16} {
		x = append(x, v)
		y = append(y, 3*v*v)
	}
	fit, err := LogLogSlope(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", fit.Slope)
	}
}

func TestLogLogSlopeSkipsNonPositive(t *testing.T) {
	x := []float64{1, 2, 0, 4, 8}
	y := []float64{2, 8, 5, 32, 128} // y = 2x^2 where valid
	fit, err := LogLogSlope(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 {
		t.Fatalf("slope = %v, want 2", fit.Slope)
	}
	if fit.N != 4 {
		t.Fatalf("N = %d, want 4 (zero-x point skipped)", fit.N)
	}
}
