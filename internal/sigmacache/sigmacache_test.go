package sigmacache

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func newCache(t *testing.T, cfg Config, lo, hi float64) *Cache {
	t.Helper()
	c, err := New(cfg, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	base := Config{Delta: 0.05, N: 300, DistanceConstraint: 0.01}
	cases := []struct {
		name string
		cfg  Config
		lo   float64
		hi   float64
	}{
		{"zero delta", Config{Delta: 0, N: 300, DistanceConstraint: 0.01}, 1, 2},
		{"odd n", Config{Delta: 0.05, N: 301, DistanceConstraint: 0.01}, 1, 2},
		{"no constraint", Config{Delta: 0.05, N: 300}, 1, 2},
		{"H' >= 1", Config{Delta: 0.05, N: 300, DistanceConstraint: 1}, 1, 2},
		{"negative memory", Config{Delta: 0.05, N: 300, MemoryConstraint: -1}, 1, 2},
		{"zero min sigma", base, 0, 2},
		{"inverted range", base, 3, 2},
		{"infinite max", base, 1, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.lo, c.hi); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDistanceConstraintGuaranteed(t *testing.T) {
	hPrime := 0.01
	c := newCache(t, Config{Delta: 0.05, N: 100, DistanceConstraint: hPrime}, 0.5, 8)
	// For a dense sweep of sigmas in range, the Hellinger distance between
	// the true distribution and the grid used must be <= H'.
	for sigma := 0.5; sigma <= 8; sigma += 0.037 {
		e, ok := c.Lookup(sigma)
		if !ok {
			t.Fatalf("miss inside covered range at sigma=%v", sigma)
		}
		if e.Sigma > sigma*(1+1e-9) {
			t.Fatalf("cache returned larger sigma %v for query %v (Theorem 1 needs smaller)", e.Sigma, sigma)
		}
		h, err := hellingerEqualMean(e.Sigma, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if h > hPrime*(1+1e-9) {
			t.Errorf("sigma=%v: Hellinger error %v exceeds H'=%v", sigma, h, hPrime)
		}
	}
	// The worst case is the distance at the ratio threshold itself.
	if h, err := hellingerEqualMean(1, c.ds); err != nil || h > hPrime*(1+1e-9) {
		t.Errorf("distance at d_s = %v (%v), want <= H'=%v", h, err, hPrime)
	}
}

func TestMemoryConstraintGuaranteed(t *testing.T) {
	// On [1, 1.5], log(D_s)/log(d_s) lands a hair above Q'-1 in floating
	// point for Q' = 68 and 300, which must not buy an extra rung.
	for _, span := range [][2]float64{{0.1, 100}, {1, 1.5}} {
		lo, hi := span[0], span[1]
		for _, qPrime := range []int{1, 2, 5, 10, 50, 68, 300} {
			c := newCache(t, Config{Delta: 0.1, N: 50, MemoryConstraint: qPrime}, lo, hi)
			if got := c.Stats().Entries; got > qPrime {
				t.Errorf("Q'=%d on [%v, %v]: %d entries cached", qPrime, lo, hi, got)
			}
			// However few rungs the budget leaves, every in-range sigma hits.
			for _, sigma := range []float64{lo, (lo + hi) / 2, hi} {
				if _, ok := c.Lookup(sigma); !ok {
					t.Errorf("Q'=%d on [%v, %v]: sigma=%v missed", qPrime, lo, hi, sigma)
				}
			}
		}
	}
}

func TestCacheSizeGrowsLogarithmically(t *testing.T) {
	// Fig. 14b: doubling D_s adds a constant number of entries.
	hPrime := 0.01
	var sizes []int
	for _, ds := range []float64{2000, 4000, 8000, 16000} {
		c := newCache(t, Config{Delta: 0.05, N: 300, DistanceConstraint: hPrime}, 1, ds)
		sizes = append(sizes, c.Stats().Entries)
	}
	// Consecutive increments should be nearly equal (log growth).
	d1 := sizes[1] - sizes[0]
	d2 := sizes[2] - sizes[1]
	d3 := sizes[3] - sizes[2]
	for _, d := range []int{d1, d2, d3} {
		if d < 1 {
			t.Fatalf("cache did not grow: sizes=%v", sizes)
		}
	}
	if abs(d1-d2) > 2 || abs(d2-d3) > 2 {
		t.Errorf("non-logarithmic growth: sizes=%v", sizes)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestLookupMissOutsideRange(t *testing.T) {
	c := newCache(t, Config{Delta: 0.05, N: 100, DistanceConstraint: 0.05}, 1, 10)
	if _, ok := c.Lookup(0.5); ok {
		t.Error("sigma below range hit")
	}
	if _, ok := c.Lookup(20); ok {
		t.Error("sigma above range hit")
	}
	if _, ok := c.Lookup(math.NaN()); ok {
		t.Error("NaN sigma hit")
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v", st)
	}
	if _, ok := c.Lookup(5); !ok {
		t.Error("in-range sigma missed")
	}
	if c.Stats().Hits != 1 {
		t.Error("hit not counted")
	}
}

func TestEntryGridMatchesDirectComputation(t *testing.T) {
	cfg := Config{Delta: 0.5, N: 8, DistanceConstraint: 0.001}
	c := newCache(t, cfg, 2, 2) // degenerate range: single entry at sigma=2
	e, ok := c.Lookup(2)
	if !ok {
		t.Fatal("lookup failed")
	}
	if len(e.CDF) != cfg.N+1 {
		t.Fatalf("grid length %d", len(e.CDF))
	}
	for i := 0; i <= cfg.N; i++ {
		x := (float64(i) - 4) * 0.5
		want := mathx.NormCDF(x, 0, 2)
		if math.Abs(e.CDF[i]-want) > 1e-14 {
			t.Errorf("CDF[%d] = %v, want %v", i, e.CDF[i], want)
		}
	}
}

// TestEntryRhoAndProbs checks the range probabilities a rung yields (Eq. 9
// after the mean shift): rho_lambda = CDF[lambda+N/2+1] - CDF[lambda+N/2],
// the differences the view builder takes of a cached grid.
func TestEntryRhoAndProbs(t *testing.T) {
	cfg := Config{Delta: 1, N: 4, DistanceConstraint: 0.001}
	c := newCache(t, cfg, 1, 1)
	e, _ := c.Lookup(1)
	if len(e.CDF) != cfg.N+1 {
		t.Fatalf("grid length %d, want N+1 = %d", len(e.CDF), cfg.N+1)
	}
	total := 0.0
	for lambda := -2; lambda < 2; lambda++ {
		rho := e.CDF[lambda+3] - e.CDF[lambda+2]
		if !(rho > 0) {
			t.Errorf("rho(%d) = %v, want > 0", lambda, rho)
		}
		total += rho
	}
	// Total over [-2, 2] of a standard normal: ~0.9545.
	if math.Abs(total-0.954499736103642) > 1e-9 {
		t.Errorf("total probability = %v", total)
	}
}

func TestApproxBytesScalesWithN(t *testing.T) {
	small := newCache(t, Config{Delta: 0.05, N: 10, DistanceConstraint: 0.01}, 1, 100)
	large := newCache(t, Config{Delta: 0.05, N: 1000, DistanceConstraint: 0.01}, 1, 100)
	sb, lb := small.Stats().ApproxBytes, large.Stats().ApproxBytes
	if sb <= 0 || lb <= sb {
		t.Errorf("bytes: small=%d large=%d", sb, lb)
	}
	// Entries should be identical (independent of view parameters; the
	// paper highlights this property).
	if small.Stats().Entries != large.Stats().Entries {
		t.Errorf("entry count depends on N: %d vs %d",
			small.Stats().Entries, large.Stats().Entries)
	}
}

func TestRungLadderCoversRange(t *testing.T) {
	c := newCache(t, Config{Delta: 0.05, N: 20, DistanceConstraint: 0.02}, 0.3, 47)
	keys := make([]float64, len(c.ladder))
	for i, e := range c.ladder {
		keys[i] = e.Sigma
	}
	if len(keys) < 2 {
		t.Fatalf("too few rungs: %v", keys)
	}
	if math.Abs(keys[0]-0.3) > 1e-12 {
		t.Errorf("first rung %v != min sigma", keys[0])
	}
	if keys[len(keys)-1] < 47/c.ds {
		t.Errorf("last rung %v leaves the top of the range uncovered", keys[len(keys)-1])
	}
	// Consecutive rung ratios equal d_s.
	for i := 1; i < len(keys); i++ {
		r := keys[i] / keys[i-1]
		if math.Abs(r-c.ds) > 1e-9 {
			t.Errorf("rung ratio %v != d_s %v", r, c.ds)
		}
	}
}

// TestLookupAllocatesNothing pins the kernel rule at run time: neither a hit
// nor a miss allocates.
func TestLookupAllocatesNothing(t *testing.T) {
	c := newCache(t, Config{Delta: 0.05, N: 100, DistanceConstraint: 0.01}, 0.5, 8)
	for _, tc := range []struct {
		name  string
		sigma float64
		hit   bool
	}{{"hit", 3.7, true}, {"miss", 20, false}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := c.Lookup(tc.sigma); ok != tc.hit {
				t.Fatalf("%s: Lookup(%v) hit = %v", tc.name, tc.sigma, ok)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Lookup, want 0", tc.name, allocs)
		}
	}
}

func TestBothConstraintsMemoryWins(t *testing.T) {
	// With a tight distance constraint and a small memory budget, the memory
	// bound must hold.
	c := newCache(t, Config{Delta: 0.05, N: 20, DistanceConstraint: 0.001, MemoryConstraint: 3}, 1, 1000)
	if got := c.Stats().Entries; got > 3 {
		t.Errorf("memory constraint violated: %d entries", got)
	}
}

// TestSigmaRangeAccessor checks that the cache answers exactly the sigma
// range it was built for: both ends hit, the bottom on its own rung, and
// just outside either end misses.
func TestSigmaRangeAccessor(t *testing.T) {
	c := newCache(t, Config{Delta: 0.05, N: 20, DistanceConstraint: 0.01}, 2, 5)
	if e, ok := c.Lookup(2); !ok || e.Sigma != 2 {
		t.Errorf("Lookup(lo) = %v, %v; want the rung at 2", e, ok)
	}
	if _, ok := c.Lookup(5); !ok {
		t.Error("Lookup(hi) missed")
	}
	for _, sigma := range []float64{1.99, 5.01} {
		if _, ok := c.Lookup(sigma); ok {
			t.Errorf("Lookup(%v) hit outside [2, 5]", sigma)
		}
	}
}

// Property: for any valid H' and sigma range, every in-range lookup hits and
// satisfies the distance constraint.
func TestQuickDistanceGuarantee(t *testing.T) {
	f := func(hRaw, loRaw, spanRaw, queryRaw float64) bool {
		hPrime := 0.001 + math.Abs(math.Mod(hRaw, 0.3))
		lo := 0.01 + math.Abs(math.Mod(loRaw, 10))
		span := 1 + math.Abs(math.Mod(spanRaw, 100))
		hi := lo * span
		c, err := New(Config{Delta: 0.1, N: 10, DistanceConstraint: hPrime}, lo, hi)
		if err != nil {
			return false
		}
		q := lo + math.Abs(math.Mod(queryRaw, 1))*(hi-lo)
		e, ok := c.Lookup(q)
		if !ok {
			return false
		}
		h, err := hellingerEqualMean(e.Sigma, q)
		if err != nil {
			return false
		}
		return h <= hPrime*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The paper's Eq. 10 and its general form are the oracle for Theorem 1: the
// tests above measure the distance between a queried sigma and the rung the
// cache answers with.

// hellingerNormal returns the Hellinger distance H between two Gaussian
// distributions N(mu1, s1^2) and N(mu2, s2^2):
//
//	H^2 = 1 - sqrt(2*s1*s2/(s1^2+s2^2)) * exp(-(mu1-mu2)^2/(4*(s1^2+s2^2)))
//
// Both standard deviations must be positive.
func hellingerNormal(mu1, s1, mu2, s2 float64) (float64, error) {
	if s1 <= 0 || s2 <= 0 {
		return math.NaN(), mathx.ErrDomain
	}
	v := s1*s1 + s2*s2
	h2 := 1 - math.Sqrt(2*s1*s2/v)*math.Exp(-(mu1-mu2)*(mu1-mu2)/(4*v))
	if h2 < 0 {
		h2 = 0 // guard against rounding below zero
	}
	return math.Sqrt(h2), nil
}

// hellingerEqualMean returns the Hellinger distance between two zero-mean (or
// mean-shifted, per the paper's argument in Section VI-A) Gaussians with
// standard deviations s1 and s2. This is Eq. (10) of the paper.
func hellingerEqualMean(s1, s2 float64) (float64, error) {
	return hellingerNormal(0, s1, 0, s2)
}

// near reports whether got is within tol of want. It is false when either
// value is NaN, so a NaN result fails every check written with it.
func near(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol
}

func TestHellingerNormalProperties(t *testing.T) {
	// Identical distributions have distance 0.
	h, err := hellingerNormal(1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !near(h, 0, 1e-12) {
		t.Errorf("H(same,same) = %v, want 0", h)
	}
	// Symmetry.
	h1, _ := hellingerNormal(0, 1, 3, 2)
	h2, _ := hellingerNormal(3, 2, 0, 1)
	if !near(h1, h2, 1e-12) {
		t.Errorf("asymmetric: %v vs %v", h1, h2)
	}
	// Bounded in [0, 1].
	if !(h1 >= 0 && h1 <= 1) {
		t.Errorf("H out of range: %v", h1)
	}
	// Far-apart means approach 1.
	hFar, _ := hellingerNormal(0, 1, 1000, 1)
	if !(hFar >= 0.999) {
		t.Errorf("far means should give H ~ 1, got %v", hFar)
	}
	if _, err := hellingerNormal(0, -1, 0, 1); err == nil {
		t.Error("expected domain error for s1<=0")
	}
}

func TestHellingerEqualMeanMatchesEq10(t *testing.T) {
	// Eq. (10): H^2 = 1 - sqrt(2 s1 s2 / (s1^2+s2^2)).
	for _, c := range [][2]float64{{1, 1}, {1, 2}, {0.5, 3}, {4, 4.00001}} {
		h, err := hellingerEqualMean(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		want := math.Sqrt(1 - math.Sqrt(2*c[0]*c[1]/(c[0]*c[0]+c[1]*c[1])))
		if !near(h, want, 1e-12) {
			t.Errorf("H(%v,%v) = %v, want %v", c[0], c[1], h, want)
		}
	}
}

// Property: Hellinger distance between equal-variance Gaussians is within
// [0,1] and zero iff sigmas match.
func TestQuickHellingerRange(t *testing.T) {
	f := func(a, b float64) bool {
		s1 := 0.1 + math.Abs(math.Mod(a, 100))
		s2 := 0.1 + math.Abs(math.Mod(b, 100))
		h, err := hellingerEqualMean(s1, s2)
		if err != nil {
			return false
		}
		return h >= 0 && h <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
