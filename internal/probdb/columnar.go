package probdb

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/storage"
	"repro/internal/view"
)

// Column kernels: the public aggregate and point-query entry points over
// the columns a storage.ProbTable consists of. Window series and the
// expected count are projections of the one chunked pass, FusedSeries in
// parallel.go. The early-stop reducers (AnyInRangePlan, AllInRangePlan)
// share scanProbs: one storage.RangeCols call — a single read-lock
// acquisition handing back the group spans and the Lo/Hi/Prob columns —
// and a plain double loop, groups outside, a branch-light column scan
// inside, with bounds checks hoisted by reslicing, no per-row or per-group
// dispatch and no allocation. Point helpers use the per-group form,
// ForEachGroupCols.
//
// Window scans read only the rows a value range can touch: on an ordered
// table (storage.Cols.Ordered, true of every builder view) groupRangeProb
// binary-searches each tuple's Omega grid for the rows overlapping (lo, hi]
// and runs rangeProbCols on that sub-span alone. The rows it skips are the
// rows the whole-tuple loop passes over without adding anything, so every
// sum adds the same terms in the same order.
//
// Results are bit-identical to the row oracle in oracle_test.go: the kernels
// perform the same floating-point operations in the same order, they just
// read operands from columns instead of view.Row structs. The zero-width
// point-mass semantics of RangeProb (a row with Hi == Lo counts fully iff
// lo < Lo <= hi) carry over unchanged. The property tests and
// FuzzColumnarKernels pin this equivalence, including matching errors.

// errRange builds RangeProb's invalid-range error; shared so the columnar
// kernels report word-for-word what the row kernels report.
func errRange(lo, hi float64) error {
	return fmt.Errorf("%w: range [%v, %v]", ErrBadArg, lo, hi)
}

// Hoisted error values: the //tspdb:kernel functions below may not call
// fmt (hotpathalloc), so their fixed-text errors are built once here.
var (
	errNilView  = fmt.Errorf("%w: nil view", ErrBadArg)
	errZeroMass = fmt.Errorf("%w: zero total probability", ErrBadArg)
)

// validRange reports whether (lo, hi] is a usable query range (ordered,
// NaN-free). Hoisted out of the scan loops: RangeProb re-validates per
// tuple, the kernels validate once per query.
func validRange(lo, hi float64) bool {
	return lo <= hi && !math.IsNaN(lo) && !math.IsNaN(hi)
}

// rangeProbCols is RangeProb over column slices: P(lo < R <= hi) for one
// tuple whose Omega ranges are rlo[i], rhi[i] with mass prob[i]. Arguments
// are pre-validated and the span is non-empty (a time group always holds at
// least one row).
//
//tspdb:kernel
func rangeProbCols(rlo, rhi, prob []float64, lo, hi float64) float64 {
	total := 0.0
	rhi = rhi[:len(rlo)]
	prob = prob[:len(rlo)]
	for i := range rlo {
		rl, rh := rlo[i], rhi[i]
		if rh == rl {
			// Zero-width point mass: counts fully iff lo < rl <= hi.
			if lo < rl && rl <= hi {
				total += prob[i]
			}
			continue
		}
		// Manual min/max compile to CMOV; for the non-NaN operands both
		// paths see (lo and hi are pre-validated) they agree with the
		// math.Max/math.Min the row kernel uses, and a NaN row bound
		// poisons the overlap identically on both paths.
		overlapLo := rl
		if lo > rl {
			overlapLo = lo
		}
		overlapHi := rh
		if hi < rh {
			overlapHi = hi
		}
		if overlapHi <= overlapLo {
			continue
		}
		if overlapLo == rl && overlapHi == rh {
			// Row fully covered: frac is (rh-rl)/(rh-rl) == 1 exactly, so
			// adding the mass outright is bit-identical and skips the
			// division.
			total += prob[i]
			continue
		}
		frac := (overlapHi - overlapLo) / (rh - rl)
		total += frac * prob[i]
	}
	return total
}

// groupRangeProb is P(lo < R <= hi) for the tuple g of c, plus the number
// of rows it read. On ordered columns it first rejects a tuple lying wholly
// outside the range in O(1) (its last Hi <= lo, or its first Lo > hi), then
// narrows to rows [a, b): a is the first row with Hi > lo, b the first with
// Lo > hi. Every row before a has Hi <= lo and every row from b on has
// Lo > hi; rangeProbCols adds nothing for either (a zero-width row fails
// lo < Lo <= hi, any other has overlapHi <= overlapLo), so the narrowed sum
// is the whole-tuple sum bit for bit. Unordered columns scan the whole
// tuple. lo and hi are pre-validated.
//
//tspdb:kernel
func groupRangeProb(g storage.TimeGroup, c storage.Cols, lo, hi float64) (q float64, read int) {
	a, b := g.Off, g.Off+g.Len
	if c.Ordered {
		if c.Hi[b-1] <= lo || c.Lo[a] > hi {
			return 0, 0
		}
		a = firstAbove(c.Hi, a, b, lo)
		b = firstAbove(c.Lo, a, b, hi)
	}
	return rangeProbCols(c.Lo[a:b], c.Hi[a:b], c.Prob[a:b], lo, hi), b - a
}

// firstAbove returns the first i in [lo, hi) with x[i] > v, or hi when there
// is none; x[lo:hi] must be non-decreasing and NaN-free.
//
//tspdb:kernel
func firstAbove(x []float64, lo, hi int, v float64) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x[m] > v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// scanProbs runs one columnar pass over [tLo, tHi], computing each tuple's
// P(lo < R_t <= hi) and handing it to reduce; a false return stops the scan
// early (the reducer's result is decided). It reports the number of tuples
// visited before the stop — zero means ErrNoRows territory — and the plan,
// whose RowsRead counts the rows those tuples' narrowed scans read. Shared
// scan under the zero-allocation reducers AnyInRangePlan and
// AllInRangePlan.
//
//tspdb:kernel
func scanProbs(p *storage.ProbTable, tLo, tHi int64, lo, hi float64, reduce func(q float64) bool) (int, ScanPlan, error) {
	var plan ScanPlan
	if p == nil {
		return 0, plan, errNilView
	}
	n := 0
	err := p.RangeCols(tLo, tHi, func(groups []storage.TimeGroup, c storage.Cols) error {
		noteScan(groups)
		if len(groups) == 0 {
			return nil
		}
		if !validRange(lo, hi) {
			return errRange(lo, hi)
		}
		for _, g := range groups {
			q, read := groupRangeProb(g, c, lo, hi)
			plan.RowsRead += read
			n++
			if !reduce(q) {
				return nil
			}
		}
		return nil
	})
	noteRowsRead(plan.RowsRead)
	if err != nil {
		return n, plan, err
	}
	if n == 0 {
		return 0, plan, ErrNoRows
	}
	return n, plan, nil
}

// AnyInRangePlan returns P(at least one R_t in (lo, hi]) over [tLo, tHi]
// under tuple independence, 1 - prod(1 - p_t), plus its scan plan for
// explain output: only RowsRead is set, the scan never parallelises.
//
//tspdb:kernel
func AnyInRangePlan(p *storage.ProbTable, tLo, tHi int64, lo, hi float64) (float64, ScanPlan, error) {
	// Work in log space to stay accurate when many tuples are involved.
	logNone, certain := 0.0, false
	_, plan, err := scanProbs(p, tLo, tHi, lo, hi, func(q float64) bool {
		if 1-q <= 0 {
			certain = true // a certain tuple decides the disjunction
			return false
		}
		logNone += math.Log(1 - q)
		return true
	})
	if err != nil {
		return 0, plan, err
	}
	if certain {
		return 1, plan, nil
	}
	return 1 - math.Exp(logNone), plan, nil
}

// AllInRangePlan returns P(every R_t in (lo, hi]) over [tLo, tHi] under
// tuple independence, prod(p_t), plus its scan plan, as AnyInRangePlan.
//
//tspdb:kernel
func AllInRangePlan(p *storage.ProbTable, tLo, tHi int64, lo, hi float64) (float64, ScanPlan, error) {
	logAll, impossible := 0.0, false
	_, plan, err := scanProbs(p, tLo, tHi, lo, hi, func(q float64) bool {
		if q <= 0 {
			impossible = true // an impossible tuple decides the conjunction
			return false
		}
		logAll += math.Log(q)
		return true
	})
	if err != nil {
		return 0, plan, err
	}
	if impossible {
		return 0, plan, nil
	}
	return math.Exp(logAll), plan, nil
}

// Point-query helpers: the single-timestamp consumers behind the server's
// /rangeprob, /topk and /buckets endpoints, bound to a view table. Each
// resolves the timestamp through the group index and evaluates on the
// zero-copy column spans.

// atGroupCols runs fn on the columnar span of timestamp t, returning
// ErrNoRows when the view has no tuple at t.
//
//tspdb:kernel
func atGroupCols(p *storage.ProbTable, t int64, fn func(g storage.GroupCols) error) error {
	if p == nil {
		return errNilView
	}
	metKernelCalls.Inc()
	found := false
	err := p.ForEachGroupCols(t, t, func(g storage.GroupCols) error {
		found = true
		noteScanGroup(len(g.Prob))
		return fn(g)
	})
	if err != nil {
		return err
	}
	if !found {
		return ErrNoRows
	}
	return nil
}

// RangeProbAt returns P(lo < R_t <= hi) for the tuple at timestamp t.
//
//tspdb:kernel
func RangeProbAt(p *storage.ProbTable, t int64, lo, hi float64) (float64, error) {
	var out float64
	err := atGroupCols(p, t, func(g storage.GroupCols) error {
		if !validRange(lo, hi) {
			return errRange(lo, hi)
		}
		out = rangeProbCols(g.Lo, g.Hi, g.Prob, lo, hi)
		noteRowsRead(len(g.Prob))
		return nil
	})
	return out, err
}

// TopKAt returns the k most probable Omega ranges of the tuple at timestamp
// t, descending (ties broken by lambda). Selection runs over the Prob
// column; only the k winning rows are materialised as copies, safe to
// retain.
func TopKAt(p *storage.ProbTable, t int64, k int) ([]view.Row, error) {
	var out []view.Row
	err := atGroupCols(p, t, func(g storage.GroupCols) error {
		if k <= 0 {
			return fmt.Errorf("%w: k=%d", ErrBadArg, k)
		}
		n := len(g.Prob)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ia, ib := idx[a], idx[b]
			if g.Prob[ia] != g.Prob[ib] {
				return g.Prob[ia] > g.Prob[ib]
			}
			return g.Lambda[ia] < g.Lambda[ib]
		})
		noteRowsRead(n)
		m := k
		if m > n {
			m = n
		}
		out = make([]view.Row, m)
		for i := range out {
			j := idx[i]
			out[i] = view.Row{T: g.T, Lambda: g.Lambda[j], Lo: g.Lo[j], Hi: g.Hi[j], Prob: g.Prob[j]}
		}
		return nil
	})
	return out, err
}

// BucketQueryAt runs the bucketed query (Fig. 1 rooms) on the tuple at
// timestamp t: one column scan per bucket, results descending by
// probability (ties broken by name).
func BucketQueryAt(p *storage.ProbTable, t int64, buckets []Bucket) ([]BucketProb, error) {
	var out []BucketProb
	err := atGroupCols(p, t, func(g storage.GroupCols) error {
		if len(buckets) == 0 {
			return fmt.Errorf("%w: no buckets", ErrBadArg)
		}
		out = make([]BucketProb, 0, len(buckets))
		for _, b := range buckets {
			if !(b.Lo <= b.Hi) {
				return fmt.Errorf("%w: bucket %q [%v, %v]", ErrBadArg, b.Name, b.Lo, b.Hi)
			}
			out = append(out, BucketProb{Bucket: b, Prob: rangeProbCols(g.Lo, g.Hi, g.Prob, b.Lo, b.Hi)})
		}
		noteRowsRead(len(g.Prob) * len(out))
		sort.Slice(out, func(i, j int) bool {
			if out[i].Prob != out[j].Prob {
				return out[i].Prob > out[j].Prob
			}
			return out[i].Bucket.Name < out[j].Bucket.Name
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
