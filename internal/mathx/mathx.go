// Package mathx provides the scalar special functions that the rest of the
// repository builds on: the normal CDF and interval probabilities, the
// regularised incomplete gamma function, the chi-squared distribution (whose
// quantile starts from the standard normal quantile), and the sigma-cache's
// ratio thresholds (Theorems 1 and 2 of the paper).
//
// Everything is implemented from scratch on top of the math package so the
// module stays dependency-free. Accuracy targets are documented per function;
// all of them are far tighter than what the paper's experiments require.
package mathx

import (
	"errors"
	"math"
)

// Sqrt2Pi is sqrt(2*pi), the normalising constant of the Gaussian density.
const Sqrt2Pi = 2.50662827463100050241576528481104525

// ErrDomain is returned by functions whose argument lies outside their domain.
var ErrDomain = errors.New("mathx: argument out of domain")

// NormCDF returns P(X <= x) for X ~ N(mu, sigma^2).
// It is computed through erfc for full relative accuracy in both tails.
func NormCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		// Degenerate distribution: a point mass at mu.
		if x < mu {
			return 0
		}
		return 1
	}
	return StdNormCDF((x - mu) / sigma)
}

// StdNormCDF returns the standard normal CDF at z.
func StdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormInterval returns P(a < X <= b) for X ~ N(mu, sigma^2). When a and b are
// both in the same far tail the direct CDF difference loses precision, so the
// subtraction is carried out on the side with smaller magnitude.
func NormInterval(a, b, mu, sigma float64) float64 {
	if b < a {
		return 0
	}
	za := (a - mu) / sigma
	zb := (b - mu) / sigma
	if za > 0 && zb > 0 {
		// Work in the upper tail: P = Q(za) - Q(zb).
		return 0.5 * (math.Erfc(za/math.Sqrt2) - math.Erfc(zb/math.Sqrt2))
	}
	return StdNormCDF(zb) - StdNormCDF(za)
}

// StdNormQuantile returns the inverse standard normal CDF at p in (0, 1).
// It uses Peter Acklam's rational approximation refined by one Halley step,
// giving ~1e-15 relative accuracy across the domain. It returns +-Inf for
// p = 1 or p = 0 and NaN outside [0, 1].
func StdNormQuantile(p float64) float64 {
	switch {
	case math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		return math.Inf(-1)
	case p == 1:
		return math.Inf(1)
	}

	// Coefficients of Acklam's approximation.
	var (
		a = [6]float64{
			-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00,
		}
		b = [5]float64{
			-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01,
		}
		c = [6]float64{
			-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00,
		}
		d = [4]float64{
			7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00,
		}
	)

	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step against the true CDF.
	e := StdNormCDF(x) - p
	u := e * Sqrt2Pi * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// GammaRegP returns the regularised lower incomplete gamma function
// P(a, x) = gamma(a, x) / Gamma(a) for a > 0, x >= 0.
// It follows the classic series/continued-fraction split (Numerical Recipes
// style): the series converges quickly for x < a+1, the Lentz continued
// fraction elsewhere. Accuracy is ~1e-14.
func GammaRegP(a, x float64) (float64, error) {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN(), ErrDomain
	case x < 0:
		return math.NaN(), ErrDomain
	case x == 0:
		return 0, nil
	}
	if x < a+1 {
		return gammaSeries(a, x), nil
	}
	return 1 - gammaContinuedFraction(a, x), nil
}

const (
	gammaEps     = 1e-16
	gammaMaxIter = 500
)

// gammaSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaContinuedFraction evaluates Q(a,x) by a modified Lentz continued
// fraction, valid for x >= a+1.
func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquaredCDF returns P(X <= x) for X ~ chi^2 with k degrees of freedom.
func ChiSquaredCDF(x float64, k float64) (float64, error) {
	if k <= 0 {
		return math.NaN(), ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	return GammaRegP(k/2, x/2)
}

// ChiSquaredQuantile returns the p-quantile of the chi^2 distribution with k
// degrees of freedom using the Wilson-Hilferty starting point refined by
// Newton iterations on the CDF; accuracy is ~1e-12.
func ChiSquaredQuantile(p float64, k float64) (float64, error) {
	if k <= 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN(), ErrDomain
	}
	if p == 0 {
		return 0, nil
	}
	if p == 1 {
		return math.Inf(1), nil
	}

	// Wilson-Hilferty normal approximation as the starting point.
	z := StdNormQuantile(p)
	t := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	x := k * t * t * t
	if x <= 0 {
		x = 1e-8
	}

	for i := 0; i < 100; i++ {
		cdf, err := ChiSquaredCDF(x, k)
		if err != nil {
			return math.NaN(), err
		}
		pdf := chiSquaredPDF(x, k)
		if pdf <= 0 {
			break
		}
		step := (cdf - p) / pdf
		// Dampen steps that would leave the support.
		for x-step <= 0 {
			step /= 2
		}
		x -= step
		if math.Abs(step) < 1e-12*(1+x) {
			break
		}
	}
	return x, nil
}

func chiSquaredPDF(x, k float64) float64 {
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(k / 2)
	return math.Exp((k/2-1)*math.Log(x) - x/2 - k/2*math.Ln2 - lg)
}

// RatioThresholdForDistance returns the largest ratio threshold d_s that
// guarantees the user-defined Hellinger distance constraint hPrime, per
// Theorem 1 (Eq. 11) of the paper:
//
//	d_s = (2 + sqrt(4 - 4(1-H'^2)^4)) / (2(1-H'^2)^2)
//
// hPrime must lie in (0, 1).
func RatioThresholdForDistance(hPrime float64) (float64, error) {
	if hPrime <= 0 || hPrime >= 1 || math.IsNaN(hPrime) {
		return math.NaN(), ErrDomain
	}
	c := 1 - hPrime*hPrime
	c2 := c * c
	disc := 4 - 4*c2*c2
	if disc < 0 {
		disc = 0
	}
	return (2 + math.Sqrt(disc)) / (2 * c2), nil
}

// RatioThresholdForMemory returns the smallest ratio threshold d_s that
// stores at most qPrime distributions given the maximum ratio Ds, per
// Theorem 2 (Eq. 14): d_s = Ds^(1/Q').
func RatioThresholdForMemory(ds float64, qPrime int) (float64, error) {
	if ds < 1 || qPrime <= 0 {
		return math.NaN(), ErrDomain
	}
	return math.Pow(ds, 1/float64(qPrime)), nil
}
