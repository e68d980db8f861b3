// Package quality implements the density distance of Section II-B: an
// indirect measure of how well a dynamic density metric's inferred densities
// p_1(R_1)...p_t(R_t) match the unobservable true densities.
//
// The probability integral transform z_i = P_i(r_i) of each raw value with
// respect to its inferred distribution is uniformly distributed on (0,1) if
// and only if the inferred densities equal the true densities (Diebold,
// Gunther & Tay 1998, cited as [13]). The density distance (Eq. 1) is the
// Euclidean distance between the histogram-approximated CDF of the z_i and
// the ideal uniform CDF.
//
// PIT infers its densities through view.TuplesFromSeries, the same window
// loop (and worker pool) an offline CREATE VIEW runs, so a metric's
// distance measures exactly the densities a view of it would store.
package quality

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/density"
	"repro/internal/stat"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// Errors reported by the package.
var (
	ErrBadArg = errors.New("quality: invalid argument")
	ErrNoData = errors.New("quality: no PIT values produced")
)

// DefaultBins is the histogram resolution used to approximate Q_Z(z).
const DefaultBins = 20

// PIT computes the probability integral transforms z_t = P_t(R_t = r_t) of a
// series with respect to the densities inferred by metric on sliding windows
// of length h. stride > 1 evaluates every stride-th window (useful for large
// sweeps); stride <= 0 defaults to 1. The resulting z values are in [0, 1].
//
// The windows are inferred across GOMAXPROCS workers; the z values are
// identical at every worker count.
func PIT(s *timeseries.Series, metric density.Metric, h, stride int) ([]float64, error) {
	if metric == nil {
		return nil, fmt.Errorf("%w: nil metric", ErrBadArg)
	}
	if h < metric.MinWindow() {
		return nil, fmt.Errorf("%w: H=%d below metric minimum %d", ErrBadArg, h, metric.MinWindow())
	}
	if stride <= 0 {
		stride = 1
	}
	tuples, err := view.TuplesFromSeries(s, metric, h, math.MinInt64, math.MaxInt64, stride, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, ErrNoData
	}
	values := s.Values()
	zs := make([]float64, len(tuples))
	for k, tp := range tuples {
		zs[k] = tp.Dist.CDF(values[h+k*stride])
	}
	return zs, nil
}

// DensityDistance computes Eq. (1): the Euclidean distance between the
// histogram-approximated CDF Q_Z of the PIT values and the uniform CDF U_Z,
// evaluated at the upper edge of each of bins equal-width bins on [0, 1].
// A perfectly calibrated metric gives a distance near zero; the worst case
// (all mass in one bin) approaches sqrt(bins)/2-ish growth, so distances are
// comparable only at equal bin counts.
func DensityDistance(zs []float64, bins int) (float64, error) {
	if bins <= 0 {
		return 0, fmt.Errorf("%w: bins=%d", ErrBadArg, bins)
	}
	if len(zs) == 0 {
		return 0, ErrNoData
	}
	h, err := stat.NewHistogram(0, 1, bins)
	if err != nil {
		return 0, err
	}
	for _, z := range zs {
		if math.IsNaN(z) {
			return 0, fmt.Errorf("%w: NaN PIT value", ErrBadArg)
		}
		h.Add(z)
	}
	qz := h.CDF()
	sum := 0.0
	for i, q := range qz {
		u := float64(i+1) / float64(bins) // uniform CDF at the bin's upper edge
		d := u - q
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// Result bundles a metric evaluation.
type Result struct {
	MetricName string
	H          int
	N          int     // number of PIT values used
	Distance   float64 // density distance (Eq. 1)
}

// Evaluate runs the full Section II-B pipeline: PIT over sliding windows of
// length h followed by the density distance with DefaultBins bins.
func Evaluate(s *timeseries.Series, metric density.Metric, h, stride int) (*Result, error) {
	zs, err := PIT(s, metric, h, stride)
	if err != nil {
		return nil, err
	}
	d, err := DensityDistance(zs, DefaultBins)
	if err != nil {
		return nil, err
	}
	return &Result{MetricName: metric.Name(), H: h, N: len(zs), Distance: d}, nil
}
