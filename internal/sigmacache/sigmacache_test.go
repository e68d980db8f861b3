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
		h, err := mathx.HellingerEqualMean(e.Sigma, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if h > hPrime*(1+1e-9) {
			t.Errorf("sigma=%v: Hellinger error %v exceeds H'=%v", sigma, h, hPrime)
		}
	}
	if c.MaxHellingerError() > hPrime*(1+1e-9) {
		t.Errorf("MaxHellingerError = %v", c.MaxHellingerError())
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

func TestEntryRhoAndProbs(t *testing.T) {
	cfg := Config{Delta: 1, N: 4, DistanceConstraint: 0.001}
	c := newCache(t, cfg, 1, 1)
	e, _ := c.Lookup(1)
	probs := e.Probs()
	if len(probs) != 4 {
		t.Fatalf("probs length %d", len(probs))
	}
	total := 0.0
	for lambda := -2; lambda < 2; lambda++ {
		rho, err := e.Rho(lambda, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rho != probs[lambda+2] {
			t.Errorf("Rho(%d) = %v != Probs[%d] = %v", lambda, rho, lambda+2, probs[lambda+2])
		}
		total += rho
	}
	// Total over [-2, 2] of a standard normal: ~0.9545.
	if math.Abs(total-0.954499736103642) > 1e-9 {
		t.Errorf("total probability = %v", total)
	}
	if _, err := e.Rho(2, 4); err == nil {
		t.Error("out-of-range lambda accepted")
	}
	if _, err := e.Rho(-3, 4); err == nil {
		t.Error("out-of-range negative lambda accepted")
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
	if keys[len(keys)-1] < 47/c.RatioThreshold() {
		t.Errorf("last rung %v leaves the top of the range uncovered", keys[len(keys)-1])
	}
	// Consecutive rung ratios equal d_s.
	for i := 1; i < len(keys); i++ {
		r := keys[i] / keys[i-1]
		if math.Abs(r-c.RatioThreshold()) > 1e-9 {
			t.Errorf("rung ratio %v != d_s %v", r, c.RatioThreshold())
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

func TestSigmaRangeAccessor(t *testing.T) {
	c := newCache(t, Config{Delta: 0.05, N: 20, DistanceConstraint: 0.01}, 2, 5)
	lo, hi := c.SigmaRange()
	if lo != 2 || hi != 5 {
		t.Errorf("range = [%v, %v]", lo, hi)
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
		h, err := mathx.HellingerEqualMean(e.Sigma, q)
		if err != nil {
			return false
		}
		return h <= hPrime*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
