package probdb

// TimeSeriesPoint pairs a timestamp with a per-tuple scalar.
type TimeSeriesPoint struct {
	T     int64
	Value float64
}

// poissonBinomialPMF runs the exact Poisson-binomial dynamic program over
// the per-tuple probabilities in series. Entry k of the result is
// P(count = k). Shared with the row oracle: the DP is not a scan, so there
// is nothing columnar about it, and sharing it keeps the cross-check focused
// on the scans that differ.
func poissonBinomialPMF(series []TimeSeriesPoint) []float64 {
	pmf := make([]float64, len(series)+1)
	pmf[0] = 1
	for _, pt := range series {
		q := pt.Value
		for k := len(pmf) - 1; k >= 1; k-- {
			pmf[k] = pmf[k]*(1-q) + pmf[k-1]*q
		}
		pmf[0] *= 1 - q
	}
	return pmf
}

// pmfTailSum sums pmf[k:], clamped to 1 against rounding drift.
func pmfTailSum(pmf []float64, k int) float64 {
	if k >= len(pmf) {
		return 0
	}
	sum := 0.0
	for i := k; i < len(pmf); i++ {
		sum += pmf[i]
	}
	if sum > 1 {
		sum = 1 // rounding guard
	}
	return sum
}
