// Package stat provides the descriptive statistics used throughout the
// repository: streaming and batch moments, autocovariance, histograms,
// empirical CDFs, and ordinary least squares regression. It also implements
// the incremental sample-variance identities that the paper's Successive
// Variance Reduction filter (Algorithm 2, Steps 8-9) relies on to stay
// quadratic instead of cubic.
package stat

import (
	"errors"
	"math"

	"repro/internal/mat"
)

// Errors reported by the estimators.
var (
	ErrEmpty      = errors.New("stat: empty sample")
	ErrShortInput = errors.New("stat: input too short for requested statistic")
	ErrBadArg     = errors.New("stat: invalid argument")
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (divisor n-1) of xs using a
// numerically stable two-pass algorithm. It returns 0 for fewer than two
// observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	comp := 0.0 // compensation term corrects for rounding in the mean
	for _, x := range xs {
		d := x - m
		ss += d * d
		comp += d
	}
	return (ss - comp*comp/float64(n)) / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Accumulator maintains a streaming mean (Welford's update). The zero value
// is an empty accumulator ready for use.
type Accumulator struct {
	n    int
	mean float64
}

// Add incorporates x.
func (a *Accumulator) Add(x float64) {
	a.n++
	a.mean += (x - a.mean) / float64(a.n)
}

// N returns the number of observations so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// MomentSums carries the raw power sums sum(v) and sum(v^2) over a sample of
// size K, exactly the quantities (v̂'_K, v̂_K) that Algorithm 2 of the paper
// maintains so that leave-one-out variances cost O(1) each.
type MomentSums struct {
	K     int
	Sum   float64 // sum of values
	SumSq float64 // sum of squared values
}

// NewMomentSums computes the power sums of vs.
func NewMomentSums(vs []float64) MomentSums {
	ms := MomentSums{K: len(vs)}
	for _, v := range vs {
		ms.Sum += v
		ms.SumSq += v * v
	}
	return ms
}

// SampleVariance returns the unbiased sample variance implied by the sums:
// SV = (SumSq - Sum^2/K) / (K-1). Returns 0 for K < 2.
func (ms MomentSums) SampleVariance() float64 {
	if ms.K < 2 {
		return 0
	}
	k := float64(ms.K)
	v := (ms.SumSq - ms.Sum*ms.Sum/k) / (k - 1)
	if v < 0 {
		return 0 // rounding guard
	}
	return v
}

// Without returns the power sums after removing a single value v.
func (ms MomentSums) Without(v float64) MomentSums {
	return MomentSums{K: ms.K - 1, Sum: ms.Sum - v, SumSq: ms.SumSq - v*v}
}

// LeaveOneOutVariance returns the sample variance of the sample with v
// removed, in O(1) using the stored sums.
func (ms MomentSums) LeaveOneOutVariance(v float64) float64 {
	return ms.Without(v).SampleVariance()
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi].
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, ErrBadArg
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records x. Values outside [Lo, Hi] are clamped into the edge bins so
// that no observation is silently dropped.
func (h *Histogram) Add(x float64) {
	b := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// CDF returns the histogram-approximated cumulative distribution evaluated at
// the upper edge of each bin: CDF()[i] = P(X <= edge_{i+1}). The last entry is
// always 1 for a non-empty histogram.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	run := 0
	for i, c := range h.Counts {
		run += c
		out[i] = float64(run) / float64(h.total)
	}
	return out
}

// OLSResult holds the outcome of an ordinary least squares fit.
type OLSResult struct {
	Coefficients []float64 // beta, in the column order of the design
	Residuals    []float64 // y - X beta
	RSS          float64   // residual sum of squares
	TSS          float64   // total sum of squares around the mean of y
	Sigma2       float64   // RSS / (n - p): residual variance estimate
	R2           float64   // 1 - RSS/TSS (0 when TSS == 0)
}

// OLS fits y = X beta + eps by least squares. X is the n x p design matrix
// (include a column of ones for an intercept). It requires n > p and a full
// column rank design.
func OLS(x *mat.Dense, y []float64) (*OLSResult, error) {
	n, p := x.Dims()
	if n != len(y) {
		return nil, ErrBadArg
	}
	if n <= p {
		return nil, ErrShortInput
	}
	beta, err := mat.SolveLeastSquares(x, y)
	if err != nil {
		return nil, err
	}
	fitted, err := mat.MulVec(x, beta)
	if err != nil {
		return nil, err
	}
	res := make([]float64, n)
	rss := 0.0
	for i := range y {
		res[i] = y[i] - fitted[i]
		rss += res[i] * res[i]
	}
	my := Mean(y)
	tss := 0.0
	for _, v := range y {
		tss += (v - my) * (v - my)
	}
	r2 := 0.0
	if tss > 0 {
		r2 = 1 - rss/tss
	}
	return &OLSResult{
		Coefficients: beta,
		Residuals:    res,
		RSS:          rss,
		TSS:          tss,
		Sigma2:       rss / float64(n-p),
		R2:           r2,
	}, nil
}

// RollingVariance returns the sample variance of each length-w window of xs
// (len(xs)-w+1 values), computed incrementally in O(n).
func RollingVariance(xs []float64, w int) ([]float64, error) {
	if w < 2 || w > len(xs) {
		return nil, ErrBadArg
	}
	out := make([]float64, 0, len(xs)-w+1)
	ms := NewMomentSums(xs[:w])
	out = append(out, ms.SampleVariance())
	for i := w; i < len(xs); i++ {
		ms.Sum += xs[i] - xs[i-w]
		ms.SumSq += xs[i]*xs[i] - xs[i-w]*xs[i-w]
		out = append(out, ms.SampleVariance())
	}
	return out, nil
}
