package arma

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// simulateAR generates n values of the AR(p) process with the given
// parameters, discarding a burn-in prefix.
func simulateAR(phi0 float64, phi []float64, sigma float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := len(phi)
	burn := 200
	xs := make([]float64, n+burn)
	for t := p; t < len(xs); t++ {
		v := phi0
		for j := 1; j <= p; j++ {
			v += phi[j-1] * xs[t-j]
		}
		xs[t] = v + sigma*rng.NormFloat64()
	}
	return xs[burn:]
}

// simulateARMA generates an ARMA(p,q) sample path.
func simulateARMA(phi0 float64, phi, theta []float64, sigma float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p, q := len(phi), len(theta)
	burn := 200
	xs := make([]float64, n+burn)
	as := make([]float64, n+burn)
	for t := maxInt(p, q); t < len(xs); t++ {
		a := sigma * rng.NormFloat64()
		v := phi0 + a
		for j := 1; j <= p; j++ {
			v += phi[j-1] * xs[t-j]
		}
		for j := 1; j <= q; j++ {
			v += theta[j-1] * as[t-j]
		}
		xs[t] = v
		as[t] = a
	}
	return xs[burn:]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestFitARRecoversCoefficients(t *testing.T) {
	xs := simulateAR(1.0, []float64{0.6, -0.3}, 0.5, 5000, 1)
	m, err := Fit(xs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.6) > 0.05 {
		t.Errorf("phi1 = %v, want ~0.6", m.Phi[0])
	}
	if math.Abs(m.Phi[1]+0.3) > 0.05 {
		t.Errorf("phi2 = %v, want ~-0.3", m.Phi[1])
	}
	if math.Abs(m.Phi0-1.0) > 0.15 {
		t.Errorf("phi0 = %v, want ~1.0", m.Phi0)
	}
	if math.Abs(m.Sigma2-0.25) > 0.03 {
		t.Errorf("sigma2 = %v, want ~0.25", m.Sigma2)
	}
}

func TestFitARMARecoversCoefficients(t *testing.T) {
	xs := simulateARMA(0.5, []float64{0.7}, []float64{0.4}, 0.5, 20000, 2)
	m, err := Fit(xs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.7) > 0.08 {
		t.Errorf("phi1 = %v, want ~0.7", m.Phi[0])
	}
	if math.Abs(m.Theta[0]-0.4) > 0.1 {
		t.Errorf("theta1 = %v, want ~0.4", m.Theta[0])
	}
}

func TestFitOrderValidation(t *testing.T) {
	xs := make([]float64, 100)
	if _, err := Fit(xs, 0, 0); !errors.Is(err, ErrOrder) {
		t.Error("p=q=0 accepted")
	}
	if _, err := Fit(xs, -1, 0); !errors.Is(err, ErrOrder) {
		t.Error("negative p accepted")
	}
	if _, err := Fit(xs, 0, -2); !errors.Is(err, ErrOrder) {
		t.Error("negative q accepted")
	}
}

func TestFitShortInput(t *testing.T) {
	if _, err := Fit([]float64{1, 2, 3}, 2, 0); !errors.Is(err, ErrShortInput) {
		t.Error("short AR input accepted")
	}
	if _, err := Fit([]float64{1, 2, 3, 4, 5}, 1, 1); !errors.Is(err, ErrShortInput) {
		t.Error("short ARMA input accepted")
	}
}

func TestConstantWindowFallback(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 7.5
	}
	m, err := Fit(xs, 1, 0)
	if err != nil {
		t.Fatalf("constant window should not fail: %v", err)
	}
	f, err := m.Forecast(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-7.5) > 1e-9 {
		t.Errorf("constant forecast = %v, want 7.5", f)
	}
}

func TestForecastOnLinearTrend(t *testing.T) {
	// AR(2) can represent a deterministic linear trend exactly
	// (x_t = 2x_{t-1} - x_{t-2}); CLS should find a forecast near the
	// trend continuation.
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = 3 + 2*float64(i) + 1e-6*math.Sin(float64(i)) // tiny jitter avoids singular design
	}
	m, err := Fit(xs, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(xs)
	if err != nil {
		t.Fatal(err)
	}
	next := 3 + 2*float64(len(xs))
	if math.Abs(f-next) > 0.1 {
		t.Errorf("trend forecast = %v, want ~%v", f, next)
	}
}

func TestResidualsOfWarmupIsZero(t *testing.T) {
	xs := simulateAR(0, []float64{0.5}, 1, 100, 3)
	m, err := Fit(xs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := m.ResidualsOf(xs)
	if len(a) != len(xs) {
		t.Fatalf("residual length %d", len(a))
	}
	if a[0] != 0 {
		t.Error("warm-up residual should be zero")
	}
	// Residual mean should be near zero on the fitted sample.
	sum := 0.0
	for _, v := range a[1:] {
		sum += v
	}
	if math.Abs(sum/float64(len(a)-1)) > 0.2 {
		t.Errorf("residual mean = %v", sum/float64(len(a)-1))
	}
}

func TestResidualsDefineForecast(t *testing.T) {
	// For every t, xs[t] - residual[t] must equal the model's prediction;
	// verify via Forecast on the prefix window.
	xs := simulateARMA(0.2, []float64{0.5}, []float64{0.3}, 1, 300, 4)
	m, err := Fit(xs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := m.ResidualsOf(xs)
	t0 := 250
	f, err := m.Forecast(xs[:t0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((xs[t0]-f)-a[t0]) > 1e-9 {
		t.Errorf("forecast/residual mismatch: %v vs %v", xs[t0]-f, a[t0])
	}
}

func TestFitForecast(t *testing.T) {
	xs := simulateAR(0, []float64{0.8}, 1, 400, 5)
	rhat, m, err := FitForecast(xs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model")
	}
	direct, err := m.Forecast(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rhat != direct {
		t.Errorf("FitForecast %v != Forecast %v", rhat, direct)
	}
}

func TestForecastShortWindow(t *testing.T) {
	m := &Model{P: 3, Phi: []float64{0.1, 0.1, 0.1}, Theta: []float64{}}
	if _, err := m.Forecast([]float64{1, 2}); !errors.Is(err, ErrShortInput) {
		t.Error("short forecast window accepted")
	}
}

func TestStringSmoke(t *testing.T) {
	m := &Model{P: 1, Q: 1, Phi: []float64{0.5}, Theta: []float64{0.2}}
	if !strings.HasPrefix(m.String(), "ARMA(1,1)") {
		t.Errorf("String() = %q, want the ARMA(1,1) order first", m.String())
	}
}

// One-step forecasts of a well-specified model should beat the naive
// last-value forecast on a persistent AR process in mean squared error.
func TestForecastBeatsNaive(t *testing.T) {
	xs := simulateAR(0, []float64{0.9}, 1, 3000, 8)
	h := 120
	var mseModel, mseNaive float64
	count := 0
	for end := h; end+1 < len(xs); end += 40 {
		window := xs[end-h : end]
		f, _, err := FitForecast(window, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		actual := xs[end]
		mseModel += (f - actual) * (f - actual)
		naive := window[len(window)-1]
		mseNaive += (naive - actual) * (naive - actual)
		count++
	}
	if count == 0 {
		t.Fatal("no forecasts made")
	}
	if mseModel >= mseNaive*1.05 {
		t.Errorf("model MSE %v not better than naive %v", mseModel/float64(count), mseNaive/float64(count))
	}
}
