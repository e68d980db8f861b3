// Package probdb implements probabilistic queries over the tuple-level
// probabilistic databases produced by the Omega-view builder — the consumers
// that motivate the paper's pipeline (Section I: the output "can be directly
// consumed by a wide variety of existing probabilistic queries").
//
// Row queries operate on the view rows of a single timestamp (a
// tuple-independent discrete distribution over Omega ranges): range
// probability, top-k ranges, expected value, and bucketed queries such as
// "which room is Alice in" (Fig. 1). The column kernels answer the same
// questions on a storage.ProbTable, at one timestamp or over a window.
package probdb

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/view"
)

// Errors reported by the queries.
var (
	ErrNoRows = errors.New("probdb: no view rows for the requested time")
	ErrBadArg = errors.New("probdb: invalid argument")
)

// RangeProb returns P(lo < R <= hi) at the tuple described by rows: the
// summed probability of every Omega range, counting partial overlaps
// proportionally (the within-range distribution is treated as uniform, the
// standard refinement for bucketed probabilities).
//
// A degenerate zero-width row (Lo == Hi) is a point mass: its full
// probability counts iff lo < Lo <= hi. Dividing through the zero width
// would instead yield NaN (or silently drop the mass), which then propagates
// into every aggregate and server response built on this function.
func RangeProb(rows []view.Row, lo, hi float64) (float64, error) {
	if len(rows) == 0 {
		return 0, ErrNoRows
	}
	if !(lo <= hi) || math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, fmt.Errorf("%w: range [%v, %v]", ErrBadArg, lo, hi)
	}
	total := 0.0
	for _, r := range rows {
		if r.Hi == r.Lo {
			if lo < r.Lo && r.Lo <= hi {
				total += r.Prob
			}
			continue
		}
		overlapLo := math.Max(lo, r.Lo)
		overlapHi := math.Min(hi, r.Hi)
		if overlapHi <= overlapLo {
			continue
		}
		if overlapLo == r.Lo && overlapHi == r.Hi {
			// Row fully covered: its whole mass, as rangeProbCols adds it.
			// For a finite row the fraction would be x/x == 1 exactly; for
			// a row with an infinite bound it would be Inf/Inf = NaN.
			total += r.Prob
			continue
		}
		frac := (overlapHi - overlapLo) / (r.Hi - r.Lo)
		total += frac * r.Prob
	}
	return total, nil
}

// TopK returns the k most probable Omega ranges in descending probability
// order (ties broken by lambda for determinism).
func TopK(rows []view.Row, k int) ([]view.Row, error) {
	if len(rows) == 0 {
		return nil, ErrNoRows
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadArg, k)
	}
	sorted := make([]view.Row, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Prob != sorted[j].Prob {
			return sorted[i].Prob > sorted[j].Prob
		}
		return sorted[i].Lambda < sorted[j].Lambda
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k], nil
}

// Expected returns the expected value of the bucketed distribution (range
// midpoints weighted by probability, normalised by total mass so truncation
// of the Gaussian tails does not bias the estimate). Zero-width rows need no
// special casing here: the midpoint of a point mass is the point itself.
func Expected(rows []view.Row) (float64, error) {
	if len(rows) == 0 {
		return 0, ErrNoRows
	}
	num, den := 0.0, 0.0
	for _, r := range rows {
		mid := (r.Lo + r.Hi) / 2
		num += mid * r.Prob
		den += r.Prob
	}
	if den == 0 {
		return 0, fmt.Errorf("%w: zero total probability", ErrBadArg)
	}
	return num / den, nil
}

// Bucket is a named value interval, e.g. a room in the indoor-tracking
// example of Fig. 1.
type Bucket struct {
	Name   string
	Lo, Hi float64
}

// BucketProb is the probability that the true value lies in a bucket.
type BucketProb struct {
	Bucket Bucket
	Prob   float64
}

// BucketQuery returns the probability of each bucket (descending), the
// "probability that Alice could be found in each of the four rooms" query.
// Buckets may overlap; probabilities are computed independently.
func BucketQuery(rows []view.Row, buckets []Bucket) ([]BucketProb, error) {
	if len(rows) == 0 {
		return nil, ErrNoRows
	}
	if len(buckets) == 0 {
		return nil, fmt.Errorf("%w: no buckets", ErrBadArg)
	}
	out := make([]BucketProb, 0, len(buckets))
	for _, b := range buckets {
		if !(b.Lo <= b.Hi) {
			return nil, fmt.Errorf("%w: bucket %q [%v, %v]", ErrBadArg, b.Name, b.Lo, b.Hi)
		}
		p, err := RangeProb(rows, b.Lo, b.Hi)
		if err != nil {
			return nil, err
		}
		out = append(out, BucketProb{Bucket: b, Prob: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Bucket.Name < out[j].Bucket.Name
	})
	return out, nil
}

// MostLikelyBucket returns the highest-probability bucket.
func MostLikelyBucket(rows []view.Row, buckets []Bucket) (BucketProb, error) {
	ps, err := BucketQuery(rows, buckets)
	if err != nil {
		return BucketProb{}, err
	}
	return ps[0], nil
}
