package quality

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/density"
	"repro/internal/dist"
	"repro/internal/timeseries"
)

// oracleMetric always returns the true data-generating distribution; its PIT
// values are exactly uniform, so its density distance must be near zero.
type oracleMetric struct {
	mu, sigma float64
}

func (m *oracleMetric) Name() string   { return "oracle" }
func (m *oracleMetric) MinWindow() int { return 1 }
func (m *oracleMetric) Infer(window []float64) (*density.Inference, error) {
	d, err := dist.NewNormal(m.mu, m.sigma)
	if err != nil {
		return nil, err
	}
	return &density.Inference{RHat: m.mu, Sigma: m.sigma, Dist: d,
		UB: m.mu + 3*m.sigma, LB: m.mu - 3*m.sigma}, nil
}

// wrongMetric returns a badly miscalibrated distribution.
type wrongMetric struct{}

func (m *wrongMetric) Name() string   { return "wrong" }
func (m *wrongMetric) MinWindow() int { return 1 }
func (m *wrongMetric) Infer(window []float64) (*density.Inference, error) {
	// Far-off mean, tiny variance: all PIT mass collapses to 0 or 1.
	d, err := dist.NewNormal(1000, 0.001)
	if err != nil {
		return nil, err
	}
	return &density.Inference{RHat: 1000, Sigma: 0.001, Dist: d, UB: 1000.003, LB: 999.997}, nil
}

func gaussianSeries(mu, sigma float64, n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = mu + sigma*rng.NormFloat64()
	}
	return timeseries.FromValues(vs)
}

func TestPITOracleIsUniform(t *testing.T) {
	s := gaussianSeries(10, 2, 3000, 1)
	zs, err := PIT(s, &oracleMetric{mu: 10, sigma: 2}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mean should be ~0.5, variance ~1/12.
	mean, varSum := 0.0, 0.0
	for _, z := range zs {
		mean += z
	}
	mean /= float64(len(zs))
	for _, z := range zs {
		varSum += (z - mean) * (z - mean)
	}
	v := varSum / float64(len(zs)-1)
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("PIT mean = %v", mean)
	}
	if math.Abs(v-1.0/12.0) > 0.01 {
		t.Errorf("PIT variance = %v, want ~0.0833", v)
	}
}

func TestDensityDistanceOracleVsWrong(t *testing.T) {
	s := gaussianSeries(10, 2, 2000, 2)
	good, err := Evaluate(s, &oracleMetric{mu: 10, sigma: 2}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Evaluate(s, &wrongMetric{}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if good.Distance > 0.2 {
		t.Errorf("oracle distance = %v, want ~0", good.Distance)
	}
	if bad.Distance < 10*good.Distance {
		t.Errorf("wrong-metric distance %v not much worse than oracle %v", bad.Distance, good.Distance)
	}
}

func TestDensityDistanceKnownValue(t *testing.T) {
	// All PIT mass at ~0: Q_Z is 1 everywhere, U_Z is k/bins, distance =
	// sqrt(sum_{k=1..B} (k/B - 1)^2).
	zs := make([]float64, 100)
	bins := 4
	d, err := DensityDistance(zs, bins)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for k := 1; k <= bins; k++ {
		diff := float64(k)/float64(bins) - 1
		want += diff * diff
	}
	want = math.Sqrt(want)
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("distance = %v, want %v", d, want)
	}
}

func TestDensityDistancePerfectUniform(t *testing.T) {
	// Evenly spread z-values give distance ~0 at matching bin edges.
	bins := 10
	var zs []float64
	for b := 0; b < bins; b++ {
		for j := 0; j < 5; j++ {
			zs = append(zs, (float64(b)+0.5)/float64(bins))
		}
	}
	d, err := DensityDistance(zs, bins)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Errorf("distance = %v, want 0", d)
	}
}

func TestDensityDistanceValidation(t *testing.T) {
	if _, err := DensityDistance([]float64{0.5}, 0); !errors.Is(err, ErrBadArg) {
		t.Error("bins=0 accepted")
	}
	if _, err := DensityDistance(nil, 10); !errors.Is(err, ErrNoData) {
		t.Error("empty input accepted")
	}
	if _, err := DensityDistance([]float64{math.NaN()}, 10); !errors.Is(err, ErrBadArg) {
		t.Error("NaN accepted")
	}
}

func TestPITValidation(t *testing.T) {
	s := gaussianSeries(0, 1, 100, 3)
	if _, err := PIT(s, nil, 10, 1); !errors.Is(err, ErrBadArg) {
		t.Error("nil metric accepted")
	}
	m, _ := density.NewARMAGARCH(1, 0)
	if _, err := PIT(s, m, 3, 1); !errors.Is(err, ErrBadArg) {
		t.Error("H below MinWindow accepted")
	}
}

func TestPITStride(t *testing.T) {
	s := gaussianSeries(0, 1, 500, 4)
	m := &oracleMetric{mu: 0, sigma: 1}
	all, err := PIT(s, m, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := PIT(s, m, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(half) < len(all)/2-1 || len(half) > len(all)/2+1 {
		t.Errorf("stride 2 gave %d of %d values", len(half), len(all))
	}
	// stride 0 behaves as 1.
	zero, err := PIT(s, m, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero) != len(all) {
		t.Error("stride 0 should default to 1")
	}
}

func TestEvaluateWithRealMetric(t *testing.T) {
	// A real end-to-end run: ARMA-GARCH on AR(1)-like data should produce a
	// finite, moderate distance.
	rng := rand.New(rand.NewSource(5))
	n := 600
	vs := make([]float64, n)
	for i := 1; i < n; i++ {
		vs[i] = 0.8*vs[i-1] + rng.NormFloat64()
	}
	s := timeseries.FromValues(vs)
	m, _ := density.NewARMAGARCH(1, 0)
	res, err := Evaluate(s, m, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MetricName != "ARMA-GARCH" || res.H != 60 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	if res.N == 0 || math.IsNaN(res.Distance) || res.Distance < 0 {
		t.Errorf("bad result: %+v", res)
	}
	if res.Distance > 2 {
		t.Errorf("well-specified metric distance = %v, suspiciously high", res.Distance)
	}
}

// TestPITMatchesSerialOracle pins PIT, which infers on a worker pool, to
// the serial definition of Section II-B: z = P_t(r_t) for the density
// inferred from the h values before r_t, every stride-th window from the
// first, bit for bit.
func TestPITMatchesSerialOracle(t *testing.T) {
	const h = 40
	rng := rand.New(rand.NewSource(6))
	vs := make([]float64, 160)
	for i := 1; i < len(vs); i++ {
		vs[i] = 0.7*vs[i-1] + rng.NormFloat64()
	}
	s := timeseries.FromValues(vs)
	vt, _ := density.NewVariableThresholding(1, 0)
	ag, _ := density.NewARMAGARCH(1, 0)
	for _, m := range []density.Metric{vt, ag} {
		for _, stride := range []int{1, 3} {
			var want []float64
			for i := h; i < len(vs); i += stride {
				inf, err := m.Infer(append([]float64(nil), vs[i-h:i]...))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, inf.Dist.CDF(vs[i]))
			}
			got, err := PIT(s, m, h, stride)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s stride %d: %d values, want %d", m.Name(), stride, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s stride %d: z[%d] = %v, want %v", m.Name(), stride, k, got[k], want[k])
				}
			}
		}
	}
}
