package view

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/density"
	"repro/internal/dist"
	"repro/internal/timeseries"
)

func TestOmegaValidate(t *testing.T) {
	bad := []Omega{
		{Delta: 0, N: 2},
		{Delta: -1, N: 2},
		{Delta: math.NaN(), N: 2},
		{Delta: 1, N: 0},
		{Delta: 1, N: 3},
		{Delta: 1, N: -2},
	}
	for _, o := range bad {
		if err := o.Validate(); !errors.Is(err, ErrBadOmega) {
			t.Errorf("omega %+v accepted", o)
		}
	}
	if err := (Omega{Delta: 0.5, N: 4}).Validate(); err != nil {
		t.Errorf("valid omega rejected: %v", err)
	}
}

func TestOmegaRanges(t *testing.T) {
	b, err := NewBuilder(Omega{Delta: 2, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Generate([]Tuple{{T: 1, RHat: 10, Sigma: 1, Dist: mustNormal(t, 10, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	rs := v.Rows
	if len(rs) != 4 {
		t.Fatalf("got %d ranges", len(rs))
	}
	// Expected: [6,8), [8,10), [10,12), [12,14) with lambdas -2..1.
	wantLo := []float64{6, 8, 10, 12}
	for i, r := range rs {
		if r.Lo != wantLo[i] || r.Hi != wantLo[i]+2 {
			t.Errorf("range %d = [%v, %v]", i, r.Lo, r.Hi)
		}
		if r.Lambda != i-2 {
			t.Errorf("lambda %d = %d", i, r.Lambda)
		}
	}
}

func mustNormal(t *testing.T, mu, sigma float64) dist.Normal {
	t.Helper()
	d, err := dist.NewNormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateOneNaiveMatchesDistribution(t *testing.T) {
	b, err := NewBuilder(Omega{Delta: 0.5, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	d := mustNormal(t, 5, 1.5)
	rows, err := b.GenerateOne(Tuple{T: 42, RHat: 5, Sigma: 1.5, Dist: d})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		want := d.Prob(r.Lo, r.Hi)
		if math.Abs(r.Prob-want) > 1e-12 {
			t.Errorf("lambda %d: prob %v want %v", r.Lambda, r.Prob, want)
		}
		if r.T != 42 {
			t.Errorf("row T = %d", r.T)
		}
	}
}

func TestGenerateOneNilDistDefaultsToGaussian(t *testing.T) {
	b, _ := NewBuilder(Omega{Delta: 1, N: 2})
	rows, err := b.GenerateOne(Tuple{T: 1, RHat: 0, Sigma: 1})
	if err != nil {
		t.Fatal(err)
	}
	// [-1,0) and [0,1) of a standard normal: each ~0.3413.
	for _, r := range rows {
		if math.Abs(r.Prob-0.341344746068543) > 1e-9 {
			t.Errorf("prob = %v", r.Prob)
		}
	}
}

func TestGenerateRequiresTuples(t *testing.T) {
	b, _ := NewBuilder(Omega{Delta: 1, N: 2})
	if _, err := b.Generate(nil); !errors.Is(err, ErrNoTuples) {
		t.Error("empty tuple set accepted")
	}
	// A tuple with nil Dist and non-positive sigma cannot be materialised.
	if _, err := b.Generate([]Tuple{{T: 1, RHat: 1, Sigma: 1}, {T: 2, RHat: 1, Sigma: -1}}); err == nil {
		t.Error("unmaterialisable tuple accepted")
	}
}

func makeTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		sigma := 0.5 + 2*rng.Float64()
		mu := 10 + rng.NormFloat64()
		d, _ := dist.NewNormal(mu, sigma)
		out[i] = Tuple{T: int64(i + 1), RHat: mu, Sigma: sigma, Dist: d}
	}
	return out
}

func TestCachedGenerationWithinDistanceConstraint(t *testing.T) {
	tuples := makeTuples(500, 1)
	omega := Omega{Delta: 0.05, N: 100}

	naive, err := NewBuilder(omega)
	if err != nil {
		t.Fatal(err)
	}
	vNaive, err := naive.Generate(tuples)
	if err != nil {
		t.Fatal(err)
	}

	cached, err := NewBuilder(omega)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := cached.AttachCache(tuples, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	vCached, err := cached.Generate(tuples)
	if err != nil {
		t.Fatal(err)
	}

	if len(vNaive.Rows) != len(vCached.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(vNaive.Rows), len(vCached.Rows))
	}
	// Probabilities must agree within a tolerance implied by the Hellinger
	// constraint: H'=0.01 keeps per-range probability errors small.
	maxDiff := 0.0
	for i := range vNaive.Rows {
		d := math.Abs(vNaive.Rows[i].Prob - vCached.Rows[i].Prob)
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.02 {
		t.Errorf("max per-range probability error = %v", maxDiff)
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("cache never hit")
	}
	if st.Entries == 0 {
		t.Error("cache empty")
	}
}

func TestCacheSkipsNonGaussianTuples(t *testing.T) {
	omega := Omega{Delta: 0.5, N: 4}
	b, _ := NewBuilder(omega)
	u, _ := dist.NewUniform(0, 10)
	gaussians := makeTuples(50, 2)
	if _, err := b.AttachCache(gaussians, 0.01, 0); err != nil {
		t.Fatal(err)
	}
	tp := Tuple{T: 1, RHat: 5, Sigma: math.Sqrt(u.Variance()), Dist: u}
	rows, err := b.GenerateOne(tp)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		want := u.Prob(r.Lo, r.Hi)
		if math.Abs(r.Prob-want) > 1e-12 {
			t.Errorf("uniform tuple served from Gaussian cache: %v vs %v", r.Prob, want)
		}
	}
}

func TestAttachCacheNoSigmas(t *testing.T) {
	b, _ := NewBuilder(Omega{Delta: 0.5, N: 4})
	tuples := []Tuple{{T: 1, RHat: 0, Sigma: 0}}
	if _, err := b.AttachCache(tuples, 0.01, 0); !errors.Is(err, ErrNoTuples) {
		t.Error("tuples without positive sigma accepted")
	}
}

func TestTuplesFromSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vs := make([]float64, 300)
	for i := 1; i < len(vs); i++ {
		vs[i] = 0.7*vs[i-1] + rng.NormFloat64()
	}
	s := timeseries.FromValues(vs)
	m, _ := density.NewARMAGARCH(1, 0)
	tuples, err := TuplesFromSeries(s, m, 60, 100, 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 101 {
		t.Fatalf("got %d tuples, want 101", len(tuples))
	}
	for _, tp := range tuples {
		if tp.T < 100 || tp.T > 200 {
			t.Errorf("tuple at t=%d outside range", tp.T)
		}
		if tp.Sigma <= 0 {
			t.Errorf("tuple sigma = %v", tp.Sigma)
		}
		if tp.Dist == nil {
			t.Error("tuple missing distribution")
		}
	}
}

func TestTuplesFromSeriesValidation(t *testing.T) {
	s := timeseries.FromValues(make([]float64, 100))
	if _, err := TuplesFromSeries(s, nil, 10, 0, 100, 1, 1); !errors.Is(err, ErrBadArg) {
		t.Error("nil metric accepted")
	}
	m, _ := density.NewARMAGARCH(1, 0)
	if _, err := TuplesFromSeries(s, m, 3, 0, 100, 1, 1); !errors.Is(err, ErrBadArg) {
		t.Error("H below MinWindow accepted")
	}
}

func TestViewHelpers(t *testing.T) {
	b, _ := NewBuilder(Omega{Delta: 1, N: 4})
	d := mustNormal(t, 0, 1)
	v, err := b.Generate([]Tuple{
		{T: 1, RHat: 0, Sigma: 1, Dist: d},
		{T: 2, RHat: 0, Sigma: 1, Dist: d},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 8 {
		t.Fatalf("%d rows, want 4 per tuple", len(v.Rows))
	}
	rows := v.Rows[:4]
	for _, r := range rows {
		if r.T != 1 {
			t.Fatalf("row %+v: want the first tuple's four rows first", r)
		}
	}
	// Total mass over [-2,2] of a standard normal: ~0.9545.
	total := 0.0
	for _, r := range rows {
		total += r.Prob
	}
	if !(math.Abs(total-0.954499736103642) <= 1e-9) {
		t.Errorf("total mass = %v", total)
	}
}

func TestViewWriteCSV(t *testing.T) {
	b, _ := NewBuilder(Omega{Delta: 1, N: 2})
	d := mustNormal(t, 0, 1)
	v, err := b.Generate([]Tuple{{T: 7, RHat: 0, Sigma: 1, Dist: d}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t,lambda") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "7,-1,") {
		t.Errorf("first row = %q", lines[1])
	}
}
