// Package density implements the paper's dynamic density metrics
// (Definition 1): systems of measure that infer the time-dependent
// probability density p_t(R_t) of the next raw value from a sliding window
// S^H_{t-1}. Four metrics are provided:
//
//   - UniformThresholding (Section III): ARMA point forecast plus a
//     user-defined threshold u, yielding U[r̂_t - u, r̂_t + u].
//   - VariableThresholding (Section III): ARMA point forecast plus the
//     window's sample variance, yielding N(r̂_t, s_t^2).
//   - ARMAGARCH (Section IV, Algorithm 1): ARMA conditional mean with
//     GARCH(m,s) conditional variance, yielding N(r̂_t, sigmâ_t^2).
//   - KalmanGARCH (Section IV): Kalman-filter conditional mean (EM-estimated
//     local level) with GARCH(m,s) conditional variance.
//
// Every metric also reports the kappa-scaled bounds ub = r̂_t + kappa*sigmâ_t
// and lb = r̂_t - kappa*sigmâ_t of Algorithm 1, which the C-GARCH layer
// (internal/clean) uses to detect erroneous values.
package density

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/arma"
	"repro/internal/dist"
	"repro/internal/garch"
	"repro/internal/kalman"
	"repro/internal/stat"
)

// Errors reported by the metrics.
var (
	ErrShortWindow = errors.New("density: window too short for metric")
	ErrBadConfig   = errors.New("density: invalid metric configuration")
)

// minSigmaFloor keeps inferred standard deviations strictly positive even on
// degenerate (constant) windows, scaled to the magnitude of the data.
const minSigmaFloor = 1e-9

// Inference is the output of a dynamic density metric at one time step: the
// expected true value r̂_t (Definition 3), the inferred density p_t(R_t) and
// the kappa-scaled bounds of Algorithm 1.
type Inference struct {
	RHat  float64           // expected true value E(R_t)
	Sigma float64           // scale of the inferred density (stddev)
	Dist  dist.Distribution // inferred density p_t(R_t)
	UB    float64           // upper bound r̂_t + kappa*sigma
	LB    float64           // lower bound r̂_t - kappa*sigma
}

// Metric is a dynamic density metric (Definition 1 of the paper).
type Metric interface {
	// Name returns a short identifier ("UT", "VT", "ARMA-GARCH", ...).
	Name() string
	// Infer estimates p_t(R_t) from the sliding window S^H_{t-1}. It is a
	// pure function of the window: it neither keeps nor modifies window,
	// and it is safe to call concurrently on one Metric value. Offline
	// inference (view.TuplesFromSeries, behind CREATE VIEW and the PIT)
	// relies on both to infer windows on a worker pool.
	Infer(window []float64) (*Inference, error)
	// MinWindow returns the smallest window length the metric accepts.
	MinWindow() int
}

// sigmaFloor returns sigma bounded away from zero, relative to the scale of
// the forecast.
func sigmaFloor(sigma, rhat float64) float64 {
	floor := minSigmaFloor * (1 + math.Abs(rhat))
	if sigma < floor {
		return floor
	}
	return sigma
}

// UniformThresholding is the uniform thresholding metric of Section III: the
// true value is assumed to lie within a user-provided threshold u of the ARMA
// forecast, uniformly.
type UniformThresholding struct {
	P, Q int     // ARMA order for the expected true value
	U    float64 // user-defined threshold bounding |r̂_t - r_t|
}

// NewUniformThresholding returns a UT metric with ARMA(p,q) mean inference
// and threshold u > 0.
func NewUniformThresholding(p, q int, u float64) (*UniformThresholding, error) {
	if u <= 0 || math.IsNaN(u) || math.IsInf(u, 0) {
		return nil, fmt.Errorf("%w: threshold u=%v", ErrBadConfig, u)
	}
	if p < 0 || q < 0 || p+q == 0 {
		return nil, fmt.Errorf("%w: ARMA order (%d,%d)", ErrBadConfig, p, q)
	}
	return &UniformThresholding{P: p, Q: q, U: u}, nil
}

// Name implements Metric.
func (m *UniformThresholding) Name() string { return "UT" }

// MinWindow implements Metric.
func (m *UniformThresholding) MinWindow() int { return minARMAWindow(m.P, m.Q) }

// Infer implements Metric.
func (m *UniformThresholding) Infer(window []float64) (*Inference, error) {
	if len(window) < m.MinWindow() {
		return nil, fmt.Errorf("%w: %d < %d", ErrShortWindow, len(window), m.MinWindow())
	}
	rhat, _, err := arma.FitForecast(window, m.P, m.Q)
	if err != nil {
		return nil, err
	}
	d, err := dist.NewUniform(rhat-m.U, rhat+m.U)
	if err != nil {
		return nil, err
	}
	return &Inference{
		RHat:  rhat,
		Sigma: math.Sqrt(d.Variance()),
		Dist:  d,
		UB:    rhat + m.U,
		LB:    rhat - m.U,
	}, nil
}

// VariableThresholding is the variable thresholding metric of Section III:
// a Gaussian centred on the ARMA forecast whose variance is the window's
// sample variance s_t^2 (Eq. 3).
type VariableThresholding struct {
	P, Q  int
	Kappa float64 // bound scale (default 3 when zero)
}

// NewVariableThresholding returns a VT metric with ARMA(p,q) mean inference.
func NewVariableThresholding(p, q int) (*VariableThresholding, error) {
	if p < 0 || q < 0 || p+q == 0 {
		return nil, fmt.Errorf("%w: ARMA order (%d,%d)", ErrBadConfig, p, q)
	}
	return &VariableThresholding{P: p, Q: q, Kappa: 3}, nil
}

// Name implements Metric.
func (m *VariableThresholding) Name() string { return "VT" }

// MinWindow implements Metric.
func (m *VariableThresholding) MinWindow() int { return minARMAWindow(m.P, m.Q) }

// Infer implements Metric.
func (m *VariableThresholding) Infer(window []float64) (*Inference, error) {
	if len(window) < m.MinWindow() {
		return nil, fmt.Errorf("%w: %d < %d", ErrShortWindow, len(window), m.MinWindow())
	}
	rhat, _, err := arma.FitForecast(window, m.P, m.Q)
	if err != nil {
		return nil, err
	}
	sigma := sigmaFloor(stat.StdDev(window), rhat)
	d, err := dist.NewNormal(rhat, sigma)
	if err != nil {
		return nil, err
	}
	k := m.Kappa
	if k <= 0 {
		k = 3
	}
	return &Inference{
		RHat:  rhat,
		Sigma: sigma,
		Dist:  d,
		UB:    rhat + k*sigma,
		LB:    rhat - k*sigma,
	}, nil
}

// ARMAGARCH is the ARMA-GARCH metric of Algorithm 1: ARMA(p,q) infers the
// expected true value, GARCH(m,s) infers the time-varying volatility.
type ARMAGARCH struct {
	P, Q  int     // ARMA order
	M, S  int     // GARCH order (paper default (1,1))
	Kappa float64 // bound scaling factor (default 3 when zero)
}

// NewARMAGARCH returns the paper's default configuration:
// ARMA(p,q) + GARCH(1,1) with kappa = 3.
func NewARMAGARCH(p, q int) (*ARMAGARCH, error) {
	if p < 0 || q < 0 || p+q == 0 {
		return nil, fmt.Errorf("%w: ARMA order (%d,%d)", ErrBadConfig, p, q)
	}
	return &ARMAGARCH{P: p, Q: q, M: 1, S: 1, Kappa: 3}, nil
}

// Name implements Metric.
func (m *ARMAGARCH) Name() string { return "ARMA-GARCH" }

// MinWindow implements Metric.
func (m *ARMAGARCH) MinWindow() int {
	w := minARMAWindow(m.P, m.Q)
	g := 2*(m.M+m.S+1) + maxInt(m.M, m.S) + 5
	if g > w {
		return g
	}
	return w
}

// Infer implements Metric; this is Algorithm 1 of the paper.
func (m *ARMAGARCH) Infer(window []float64) (*Inference, error) {
	if len(window) < m.MinWindow() {
		return nil, fmt.Errorf("%w: %d < %d", ErrShortWindow, len(window), m.MinWindow())
	}
	// Step 1: estimate ARMA(p,q) on the window and obtain the shocks a_i.
	rhat, armaModel, err := arma.FitForecast(window, m.P, m.Q)
	if err != nil {
		return nil, err
	}
	resid := armaModel.ResidualsOf(window)
	warm := maxInt(m.P, m.Q)
	resid = resid[warm:]

	// Steps 2-3: estimate GARCH(m,s) on the shocks and infer sigmâ^2_t.
	gm, gs := m.M, m.S
	if gm == 0 {
		gm = 1
	}
	sigma2, _, err := garch.FitForecast(resid, gm, gs, nil)
	if err != nil {
		// Degenerate or too-short residual windows fall back to the
		// variable-thresholding variance, which is always available.
		if errors.Is(err, garch.ErrDegenerate) || errors.Is(err, garch.ErrShortInput) {
			sigma2 = stat.Variance(window)
		} else {
			return nil, err
		}
	}
	sigma := sigmaFloor(math.Sqrt(sigma2), rhat)
	d, err := dist.NewNormal(rhat, sigma)
	if err != nil {
		return nil, err
	}
	// Step 4: kappa-scaled bounds.
	k := m.Kappa
	if k <= 0 {
		k = 3
	}
	return &Inference{
		RHat:  rhat,
		Sigma: sigma,
		Dist:  d,
		UB:    rhat + k*sigma,
		LB:    rhat - k*sigma,
	}, nil
}

// KalmanGARCH is the Kalman-GARCH metric of Section IV: the Kalman filter
// (Eqs. 7-8, EM-estimated) infers the expected true value and supplies the
// innovations a_i = r_i - r̂_i to a GARCH(m,s) volatility model.
type KalmanGARCH struct {
	M, S  int     // GARCH order
	Kappa float64 // bound scaling factor (default 3 when zero)
	// EMSettings optionally tunes the Kalman EM estimation; the default
	// follows the paper's observation that EM iterates until convergence.
	EMSettings *kalman.EMSettings
}

// NewKalmanGARCH returns the paper's default configuration:
// local-level Kalman + GARCH(1,1) with kappa = 3.
func NewKalmanGARCH() *KalmanGARCH {
	return &KalmanGARCH{M: 1, S: 1, Kappa: 3}
}

// Name implements Metric.
func (m *KalmanGARCH) Name() string { return "Kalman-GARCH" }

// MinWindow implements Metric.
func (m *KalmanGARCH) MinWindow() int {
	g := 2*(m.M+m.S+1) + maxInt(m.M, m.S) + 5
	if g < 4 {
		return 4
	}
	return g
}

// Infer implements Metric.
func (m *KalmanGARCH) Infer(window []float64) (*Inference, error) {
	if len(window) < m.MinWindow() {
		return nil, fmt.Errorf("%w: %d < %d", ErrShortWindow, len(window), m.MinWindow())
	}
	em := m.EMSettings
	if em == nil {
		// The paper runs EM to numerical convergence, which it identifies as
		// the reason Kalman-GARCH is 5-19x slower than ARMA-GARCH
		// (Section VII-A); keep that behaviour by default.
		em = &kalman.EMSettings{MaxIter: 500, Tol: 1e-12}
	}
	rhat, km, err := kalman.FitForecast(window, em)
	if err != nil {
		return nil, err
	}
	resid, err := km.Residuals(window)
	if err != nil {
		return nil, err
	}
	resid = resid[1:] // the first innovation only reflects the prior

	gm, gs := m.M, m.S
	if gm == 0 {
		gm = 1
	}
	sigma2, _, err := garch.FitForecast(resid, gm, gs, nil)
	if err != nil {
		if errors.Is(err, garch.ErrDegenerate) || errors.Is(err, garch.ErrShortInput) {
			sigma2 = stat.Variance(window)
		} else {
			return nil, err
		}
	}
	sigma := sigmaFloor(math.Sqrt(sigma2), rhat)
	d, err := dist.NewNormal(rhat, sigma)
	if err != nil {
		return nil, err
	}
	k := m.Kappa
	if k <= 0 {
		k = 3
	}
	return &Inference{
		RHat:  rhat,
		Sigma: sigma,
		Dist:  d,
		UB:    rhat + k*sigma,
		LB:    rhat - k*sigma,
	}, nil
}

// minARMAWindow returns the smallest window on which arma.Fit succeeds for
// order (p, q), with headroom for the Hannan-Rissanen long autoregression.
func minARMAWindow(p, q int) int {
	if q == 0 {
		return 2*p + 2
	}
	// Hannan-Rissanen needs the long AR (order p+q+2 capped at n/4-1) plus
	// the stage-2 regression rows.
	long := p + q + 2
	n1 := 4 * (long + 1)                  // ensures the cap n/4-1 >= 1 and long fits
	n2 := long + maxInt(p, q) + p + q + 2 // stage-2 row requirement
	if n2 > n1 {
		return n2
	}
	return n1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Compile-time interface checks.
var (
	_ Metric = (*UniformThresholding)(nil)
	_ Metric = (*VariableThresholding)(nil)
	_ Metric = (*ARMAGARCH)(nil)
	_ Metric = (*KalmanGARCH)(nil)
)
