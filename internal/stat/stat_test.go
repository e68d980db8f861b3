package stat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sum of squared deviations = 32, n-1 = 7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance of empty should be 0")
	}
}

func TestVarianceNumericallyStable(t *testing.T) {
	// Large offset destroys naive sum-of-squares computations.
	base := 1e9
	xs := []float64{base + 1, base + 2, base + 3}
	if got := Variance(xs); !almost(got, 1, 1e-9) {
		t.Errorf("offset variance = %v, want 1", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if lo != -1 || hi != 5 {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("empty not detected")
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	xs := []float64{0.5, 1.2, -3.4, 2.2, 9.1, -0.7}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	if acc.N() != len(xs) {
		t.Errorf("N = %d", acc.N())
	}
	if !almost(acc.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Mean = %v, want %v", acc.Mean(), Mean(xs))
	}
}

func TestAccumulatorSmallN(t *testing.T) {
	var acc Accumulator
	if acc.N() != 0 || acc.Mean() != 0 {
		t.Errorf("empty accumulator: N = %d, Mean = %v; want 0, 0", acc.N(), acc.Mean())
	}
	acc.Add(5)
	if acc.N() != 1 || acc.Mean() != 5 {
		t.Errorf("one value: N = %d, Mean = %v; want 1, 5", acc.N(), acc.Mean())
	}
}

func TestMomentSumsLeaveOneOut(t *testing.T) {
	vs := []float64{4, 8, 15, 16, 23, 42}
	ms := NewMomentSums(vs)
	if !almost(ms.SampleVariance(), Variance(vs), 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", ms.SampleVariance(), Variance(vs))
	}
	// Leave-one-out via sums must equal recomputing from scratch.
	for i, v := range vs {
		rest := make([]float64, 0, len(vs)-1)
		rest = append(rest, vs[:i]...)
		rest = append(rest, vs[i+1:]...)
		want := Variance(rest)
		got := ms.LeaveOneOutVariance(v)
		if !almost(got, want, 1e-10) {
			t.Errorf("LOO variance dropping %v = %v, want %v", v, got, want)
		}
	}
}

func TestMomentSumsDegenerate(t *testing.T) {
	if NewMomentSums([]float64{1}).SampleVariance() != 0 {
		t.Error("K=1 variance should be 0")
	}
	if NewMomentSums(nil).SampleVariance() != 0 {
		t.Error("K=0 variance should be 0")
	}
}

func TestHistogramCDF(t *testing.T) {
	h, err := NewHistogram(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 0.3, 0.6, 0.9} {
		h.Add(x)
	}
	cdf := h.CDF()
	want := []float64{0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almost(cdf[i], want[i], 1e-12) {
			t.Errorf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h, _ := NewHistogram(0, 1, 2)
	h.Add(-5)
	h.Add(7)
	if h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("clamping failed: %v", h.Counts)
	}
}

func TestHistogramEmptyCDF(t *testing.T) {
	h, _ := NewHistogram(0, 1, 3)
	for _, v := range h.CDF() {
		if v != 0 {
			t.Error("empty histogram CDF should be all zeros")
		}
	}
}

func TestHistogramBadArgs(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err != ErrBadArg {
		t.Error("zero bins not detected")
	}
	if _, err := NewHistogram(1, 0, 3); err != ErrBadArg {
		t.Error("hi<=lo not detected")
	}
}

func TestOLSRecoversLine(t *testing.T) {
	n := 50
	x := mat.NewDense(n, 2, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(i) / 10
		x.Set(i, 0, 1)
		x.Set(i, 1, xv)
		y[i] = 1.5 - 2.5*xv
	}
	res, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Coefficients[0], 1.5, 1e-9) || !almost(res.Coefficients[1], -2.5, 1e-9) {
		t.Errorf("coefficients = %v", res.Coefficients)
	}
	if res.RSS > 1e-18 {
		t.Errorf("RSS = %v for exact fit", res.RSS)
	}
	if !almost(res.R2, 1, 1e-9) {
		t.Errorf("R2 = %v", res.R2)
	}
}

func TestOLSErrors(t *testing.T) {
	x := mat.NewDense(2, 2, []float64{1, 0, 1, 1})
	if _, err := OLS(x, []float64{1}); err != ErrBadArg {
		t.Error("length mismatch not detected")
	}
	if _, err := OLS(x, []float64{1, 2}); err != ErrShortInput {
		t.Error("n <= p not detected")
	}
}

func TestOLSConstantResponse(t *testing.T) {
	x := mat.NewDense(4, 1, []float64{1, 1, 1, 1})
	res, err := OLS(x, []float64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Coefficients[0], 7, 1e-12) {
		t.Errorf("intercept = %v", res.Coefficients[0])
	}
	if res.R2 != 0 { // TSS == 0 -> define R2 = 0
		t.Errorf("R2 = %v for zero-variance response", res.R2)
	}
}

func TestRollingVarianceMatchesBatch(t *testing.T) {
	xs := []float64{1, 4, 2, 8, 5, 7, 1, 9, 3}
	w := 4
	got, err := RollingVariance(xs, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs)-w+1 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		want := Variance(xs[i : i+w])
		if !almost(got[i], want, 1e-10) {
			t.Errorf("window %d: %v want %v", i, got[i], want)
		}
	}
}

func TestRollingVarianceErrors(t *testing.T) {
	if _, err := RollingVariance([]float64{1, 2}, 1); err != ErrBadArg {
		t.Error("w<2 not detected")
	}
	if _, err := RollingVariance([]float64{1, 2}, 3); err != ErrBadArg {
		t.Error("w>n not detected")
	}
}

// Property: variance is non-negative and invariant under shifts.
func TestQuickVarianceShiftInvariant(t *testing.T) {
	f := func(raw [8]float64, shift float64) bool {
		shift = math.Mod(shift, 1e6)
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			v = math.Mod(v, 1e6)
			if math.IsNaN(v) {
				v = 0
			}
			xs[i] = v
			ys[i] = v + shift
		}
		v1, v2 := Variance(xs), Variance(ys)
		if v1 < 0 || v2 < 0 {
			return false
		}
		return almost(v1, v2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: leave-one-out variance via MomentSums always matches direct
// recomputation.
func TestQuickLeaveOneOut(t *testing.T) {
	f := func(raw [6]float64, idx uint8) bool {
		vs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			vs[i] = math.Mod(v, 1e4)
		}
		i := int(idx) % len(vs)
		ms := NewMomentSums(vs)
		rest := make([]float64, 0, len(vs)-1)
		rest = append(rest, vs[:i]...)
		rest = append(rest, vs[i+1:]...)
		return almost(ms.LeaveOneOutVariance(vs[i]), Variance(rest), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
