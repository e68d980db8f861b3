package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// near reports whether got is within tol of want. It is false when either
// value is NaN, so a NaN result fails every check written with it.
func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

func TestStdNormCDFReferenceValues(t *testing.T) {
	// Reference values from the standard normal table (15 digits computed
	// with an independent high-precision implementation).
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.841344746068543},
		{-1, 0.158655253931457},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.998650101968370},
		{-3, 0.001349898031630},
		{6, 0.999999999013412},
	}
	for _, c := range cases {
		got := StdNormCDF(c.z)
		if !near(got, c.want, 1e-12) {
			t.Errorf("StdNormCDF(%v) = %.15f, want %.15f", c.z, got, c.want)
		}
	}
}

func TestNormCDFDegenerateSigma(t *testing.T) {
	if got := NormCDF(1, 2, 0); got != 0 {
		t.Errorf("point mass below mean: got %v", got)
	}
	if got := NormCDF(3, 2, 0); got != 1 {
		t.Errorf("point mass above mean: got %v", got)
	}
	if got := NormCDF(2, 2, 0); got != 1 {
		t.Errorf("point mass at mean: got %v", got)
	}
}

func TestStdNormQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.01, 0.025, 0.3, 0.5, 0.7, 0.975, 0.99, 1 - 1e-6} {
		z := StdNormQuantile(p)
		back := StdNormCDF(z)
		if !near(back, p, 1e-10) {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
}

func TestStdNormQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(StdNormQuantile(0), -1) {
		t.Error("Quantile(0) should be -Inf")
	}
	if !math.IsInf(StdNormQuantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	if !math.IsNaN(StdNormQuantile(-0.1)) || !math.IsNaN(StdNormQuantile(1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	if !math.IsNaN(StdNormQuantile(math.NaN())) {
		t.Error("Quantile(NaN) should be NaN")
	}
}

func TestStdNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.841344746068543, 1},
	}
	for _, c := range cases {
		if got := StdNormQuantile(c.p); !near(got, c.want, 1e-9) {
			t.Errorf("StdNormQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormIntervalMatchesCDFDifference(t *testing.T) {
	cases := []struct{ a, b, mu, sigma float64 }{
		{-1, 1, 0, 1},
		{0, 2, 1, 0.5},
		{5, 9, 0, 2},   // both in upper tail
		{-9, -5, 0, 2}, // both in lower tail
	}
	for _, c := range cases {
		got := NormInterval(c.a, c.b, c.mu, c.sigma)
		want := NormCDF(c.b, c.mu, c.sigma) - NormCDF(c.a, c.mu, c.sigma)
		if !near(got, want, 1e-12) {
			t.Errorf("NormInterval(%v,%v) = %v, want %v", c.a, c.b, got, want)
		}
	}
	if got := NormInterval(2, 1, 0, 1); got != 0 {
		t.Errorf("reversed interval should be 0, got %v", got)
	}
}

func TestNormIntervalTailPrecision(t *testing.T) {
	// P(8 < Z <= 9) is ~6.2e-16; the direct difference underflows to 0 while
	// the tail-aware path keeps significant digits.
	got := NormInterval(8, 9, 0, 1)
	if !(got > 0) {
		t.Fatalf("far-tail interval should be positive, got %v", got)
	}
	want := 6.2198e-16
	if !near(got, want, 1e-3*want) {
		t.Errorf("far-tail interval = %v, want ~%v", got, want)
	}
}

func TestGammaRegPReferenceValues(t *testing.T) {
	// Reference values computed independently (SciPy gammainc).
	cases := []struct{ a, x, want float64 }{
		{1, 1, 0.632120558828558},
		{0.5, 0.5, 0.682689492137086},
		{2, 3, 0.800851726528544},
		{10, 5, 0.031828057306204},
		{10, 20, 0.995004587691692},
	}
	for _, c := range cases {
		got, err := GammaRegP(c.a, c.x)
		if err != nil {
			t.Fatalf("GammaRegP(%v,%v): %v", c.a, c.x, err)
		}
		if !near(got, c.want, 1e-10) {
			t.Errorf("GammaRegP(%v,%v) = %.15f, want %.15f", c.a, c.x, got, c.want)
		}
	}
}

func TestGammaRegDomainErrors(t *testing.T) {
	if _, err := GammaRegP(-1, 1); err == nil {
		t.Error("expected domain error for a<0")
	}
	if _, err := GammaRegP(1, -1); err == nil {
		t.Error("expected domain error for x<0")
	}
	if _, err := GammaRegP(0, 1); err == nil {
		t.Error("expected domain error for a=0")
	}
	if p, err := GammaRegP(3, 0); err != nil || p != 0 {
		t.Errorf("P(a,0) = %v, %v; want 0, nil", p, err)
	}
}

func TestChiSquaredCDFReferenceValues(t *testing.T) {
	// chi^2 upper 5% critical values: CDF(crit, k) = 0.95.
	crit := map[int]float64{
		1: 3.841458820694124,
		2: 5.991464547107979,
		3: 7.814727903251179,
		4: 9.487729036781154,
		8: 15.50731305586545,
	}
	for k, x := range crit {
		got, err := ChiSquaredCDF(x, float64(k))
		if err != nil {
			t.Fatal(err)
		}
		if !near(got, 0.95, 1e-10) {
			t.Errorf("ChiSquaredCDF(%v, %d) = %v, want 0.95", x, k, got)
		}
	}
}

func TestChiSquaredQuantileInvertsCDF(t *testing.T) {
	for _, k := range []float64{1, 2, 5, 8, 30} {
		for _, p := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
			x, err := ChiSquaredQuantile(p, k)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ChiSquaredCDF(x, k)
			if err != nil {
				t.Fatal(err)
			}
			if !near(back, p, 1e-9) {
				t.Errorf("k=%v p=%v: CDF(Quantile)=%v", k, p, back)
			}
		}
	}
}

func TestChiSquaredQuantileEdges(t *testing.T) {
	if x, err := ChiSquaredQuantile(0, 3); err != nil || x != 0 {
		t.Errorf("Quantile(0) = %v, %v", x, err)
	}
	if x, err := ChiSquaredQuantile(1, 3); err != nil || !math.IsInf(x, 1) {
		t.Errorf("Quantile(1) = %v, %v", x, err)
	}
	if _, err := ChiSquaredQuantile(0.5, -1); err == nil {
		t.Error("expected domain error for k<0")
	}
	if _, err := ChiSquaredQuantile(2, 3); err == nil {
		t.Error("expected domain error for p>1")
	}
}

func TestRatioThresholdForDistanceSatisfiesConstraint(t *testing.T) {
	// Eq. (10) for N(0, 1) against N(0, d^2).
	hellinger := func(d float64) float64 { return math.Sqrt(1 - math.Sqrt(2*d/(1+d*d))) }
	// For any H' and any sigma, scaling by d_s must give Hellinger distance
	// exactly H' (the theorem's bound is tight at d_s).
	for _, hPrime := range []float64{0.001, 0.01, 0.05, 0.2, 0.5} {
		ds, err := RatioThresholdForDistance(hPrime)
		if err != nil {
			t.Fatal(err)
		}
		if !(ds >= 1) {
			t.Errorf("d_s < 1 for H'=%v: %v", hPrime, ds)
		}
		if h := hellinger(ds); !near(h, hPrime, 1e-9) {
			t.Errorf("H'=%v: distance at d_s = %v", hPrime, h)
		}
		// Any smaller ratio must give a smaller distance.
		if hSmaller := hellinger(1 + (ds-1)/2); !(hSmaller <= hPrime) {
			t.Errorf("H'=%v: distance at smaller ratio %v exceeds constraint", hPrime, hSmaller)
		}
	}
}

func TestRatioThresholdForDistanceDomain(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 2, math.NaN()} {
		if _, err := RatioThresholdForDistance(bad); err == nil {
			t.Errorf("expected domain error for H'=%v", bad)
		}
	}
}

func TestRatioThresholdForMemory(t *testing.T) {
	// Ds = 16, Q' = 4 -> d_s = 2.
	ds, err := RatioThresholdForMemory(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !near(ds, 2, 1e-12) {
		t.Errorf("d_s = %v, want 2", ds)
	}
	if _, err := RatioThresholdForMemory(0.5, 4); err == nil {
		t.Error("expected domain error for Ds<1")
	}
	if _, err := RatioThresholdForMemory(16, 0); err == nil {
		t.Error("expected domain error for Q'<=0")
	}
}

// Property: the normal CDF is monotone non-decreasing.
func TestQuickNormCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 50)
		b = math.Mod(b, 50)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return StdNormCDF(lo) <= StdNormCDF(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantile/CDF round trip within the bulk of the distribution.
func TestQuickQuantileRoundTrip(t *testing.T) {
	f := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p < 1e-10 || p > 1-1e-10 {
			return true
		}
		z := StdNormQuantile(p)
		return math.Abs(StdNormCDF(z)-p) <= 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
