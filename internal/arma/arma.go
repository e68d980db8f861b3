// Package arma implements the AutoRegressive Moving Average model of
// Section III (Eq. 2): given a sliding window, it estimates the coefficients
// of an ARMA(p,q) model and produces the one-step-ahead expected true value
// r̂_t together with the residual (shock) sequence a_i = r_i - r̂_i that the
// GARCH metric consumes.
//
// Estimation strategy:
//   - Pure AR(p) models are fitted by conditional least squares (OLS on the
//     lagged design), which is closed-form, fast and exactly what low-order
//     windowed inference needs.
//   - Mixed ARMA(p,q) models are fitted by the Hannan-Rissanen two-stage
//     procedure: a long autoregression provides proxy innovations, then the
//     model is an OLS regression on lagged values and lagged innovations.
//
// Both paths are deterministic and run in O(H * (p+q)^2) per window, matching
// the complexity the paper cites for the estimation step.
package arma

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/stat"
)

// Errors reported by the estimators.
var (
	ErrOrder      = errors.New("arma: invalid model order")
	ErrShortInput = errors.New("arma: window too short for requested order")
)

// Model is a fitted ARMA(p,q) model: r_t = Phi0 + sum phi_j r_{t-j}
// + sum theta_j a_{t-j} + a_t.
type Model struct {
	P, Q   int
	Phi0   float64   // constant term
	Phi    []float64 // autoregressive coefficients phi_1..phi_p
	Theta  []float64 // moving-average coefficients theta_1..theta_q
	Sigma2 float64   // innovation variance estimate
	n      int       // observations used in fitting
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("ARMA(%d,%d){phi0=%.4g phi=%v theta=%v sigma2=%.4g}",
		m.P, m.Q, m.Phi0, m.Phi, m.Theta, m.Sigma2)
}

// Fit estimates an ARMA(p, q) model on xs. It requires
// len(xs) > p + q + max(p,q) + 1 so that the design has more rows than
// columns. For q == 0 it uses conditional least squares; otherwise
// Hannan-Rissanen.
func Fit(xs []float64, p, q int) (*Model, error) {
	if p < 0 || q < 0 || p+q == 0 {
		return nil, fmt.Errorf("%w: p=%d q=%d", ErrOrder, p, q)
	}
	if q == 0 {
		return fitAR(xs, p)
	}
	return fitHannanRissanen(xs, p, q)
}

// fitAR fits AR(p) by conditional least squares.
func fitAR(xs []float64, p int) (*Model, error) {
	n := len(xs)
	if n < 2*p+2 {
		return nil, fmt.Errorf("%w: n=%d p=%d", ErrShortInput, n, p)
	}
	rows := n - p
	design := mat.NewDense(rows, p+1, nil)
	y := make([]float64, rows)
	for t := p; t < n; t++ {
		r := t - p
		design.Set(r, 0, 1)
		for j := 1; j <= p; j++ {
			design.Set(r, j, xs[t-j])
		}
		y[r] = xs[t]
	}
	res, err := stat.OLS(design, y)
	if err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return constantFallback(xs, p, 0), nil
		}
		return nil, err
	}
	return &Model{
		P:      p,
		Phi0:   res.Coefficients[0],
		Phi:    res.Coefficients[1 : p+1],
		Theta:  []float64{},
		Sigma2: res.Sigma2,
		n:      rows,
	}, nil
}

// fitHannanRissanen fits ARMA(p,q) via the two-stage Hannan-Rissanen method.
func fitHannanRissanen(xs []float64, p, q int) (*Model, error) {
	n := len(xs)
	// Stage 1: long autoregression to obtain proxy innovations. The long
	// order grows slowly with n but is capped so small windows still work.
	long := p + q + 2
	if cap := n/4 - 1; long > cap {
		long = cap
	}
	if long < 1 {
		return nil, fmt.Errorf("%w: n=%d p=%d q=%d", ErrShortInput, n, p, q)
	}
	arModel, err := fitAR(xs, long)
	if err != nil {
		return nil, err
	}
	innov := arModel.ResidualsOf(xs) // len n; first `long` entries are zero

	// Stage 2: regress x_t on its own lags and lagged proxy innovations.
	start := long + max(p, q)
	rows := n - start
	if rows < p+q+2 {
		return nil, fmt.Errorf("%w: n=%d p=%d q=%d", ErrShortInput, n, p, q)
	}
	design := mat.NewDense(rows, 1+p+q, nil)
	y := make([]float64, rows)
	for t := start; t < n; t++ {
		r := t - start
		design.Set(r, 0, 1)
		for j := 1; j <= p; j++ {
			design.Set(r, j, xs[t-j])
		}
		for j := 1; j <= q; j++ {
			design.Set(r, p+j, innov[t-j])
		}
		y[r] = xs[t]
	}
	res, err := stat.OLS(design, y)
	if err != nil {
		if errors.Is(err, mat.ErrSingular) {
			return constantFallback(xs, p, q), nil
		}
		return nil, err
	}
	return &Model{
		P:      p,
		Q:      q,
		Phi0:   res.Coefficients[0],
		Phi:    res.Coefficients[1 : p+1],
		Theta:  res.Coefficients[p+1 : p+q+1],
		Sigma2: res.Sigma2,
		n:      rows,
	}, nil
}

// constantFallback models a (numerically) constant window as its mean with
// zero AR/MA coefficients. Sensor streams genuinely flatline (e.g. a stuck
// reading), and failing the whole inference there would be worse than the
// degenerate-but-correct forecast "the constant continues".
func constantFallback(xs []float64, p, q int) *Model {
	return &Model{
		P:      p,
		Q:      q,
		Phi0:   stat.Mean(xs),
		Phi:    make([]float64, p),
		Theta:  make([]float64, q),
		Sigma2: stat.Variance(xs),
		n:      len(xs),
	}
}

// ResidualsOf returns the in-sample innovation sequence a_i implied by the
// model on xs. Entries before the recursion warm-up (the first max(p,q)
// indices) are zero, the standard conditional-likelihood convention.
func (m *Model) ResidualsOf(xs []float64) []float64 {
	n := len(xs)
	a := make([]float64, n)
	start := max(m.P, m.Q)
	for t := start; t < n; t++ {
		pred := m.Phi0
		for j := 1; j <= m.P; j++ {
			pred += m.Phi[j-1] * xs[t-j]
		}
		for j := 1; j <= m.Q; j++ {
			pred += m.Theta[j-1] * a[t-j]
		}
		a[t] = xs[t] - pred
	}
	return a
}

// Forecast returns the one-step-ahead expected true value r̂_t given the
// window xs (the model's Eq. 2 evaluated at t = len(xs)).
func (m *Model) Forecast(xs []float64) (float64, error) {
	if len(xs) < max(m.P, m.Q) {
		return 0, fmt.Errorf("%w: window %d for ARMA(%d,%d)", ErrShortInput, len(xs), m.P, m.Q)
	}
	a := m.ResidualsOf(xs)
	n := len(xs)
	pred := m.Phi0
	for j := 1; j <= m.P; j++ {
		pred += m.Phi[j-1] * xs[n-j]
	}
	for j := 1; j <= m.Q; j++ {
		pred += m.Theta[j-1] * a[n-j]
	}
	return pred, nil
}

// FitForecast is the hot path used by the dynamic density metrics: estimate
// the model on the window and return the one-step forecast along with the
// fitted model.
func FitForecast(window []float64, p, q int) (rhat float64, model *Model, err error) {
	model, err = Fit(window, p, q)
	if err != nil {
		return 0, nil, err
	}
	rhat, err = model.Forecast(window)
	if err != nil {
		return 0, nil, err
	}
	return rhat, model, nil
}
