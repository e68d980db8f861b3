package probdb

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/view"
)

// The row-at-a-time oracle: every aggregate and point helper recomputed
// from materialised view.Row values (storage.ProbTable.RowsRange / RowsAt)
// through the per-tuple []view.Row functions of probdb.go. It shares no scan
// loop with the column kernels — it never sees a column span — which is what
// makes the byte-identity the property and fuzz tests pin against it
// meaningful.

// eachTuple runs query on every tuple of the view within [tLo, tHi] and
// feeds each scalar to fn; it guards the nil view and reports ErrNoRows when
// the range holds no tuples.
func eachTuple(p *storage.ProbTable, tLo, tHi int64, query func(rows []view.Row) (float64, error), fn func(t int64, v float64) error) error {
	if p == nil {
		return fmt.Errorf("%w: nil view", ErrBadArg)
	}
	rows := p.RowsRange(tLo, tHi)
	if len(rows) == 0 {
		return ErrNoRows
	}
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].T == rows[0].T {
			n++
		}
		v, err := query(rows[:n])
		if err != nil {
			return err
		}
		if err := fn(rows[0].T, v); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// seriesOver collects query's per-tuple scalar over [tLo, tHi] as a series.
func seriesOver(p *storage.ProbTable, tLo, tHi int64, query func(rows []view.Row) (float64, error)) ([]TimeSeriesPoint, error) {
	var out []TimeSeriesPoint
	err := eachTuple(p, tLo, tHi, query, func(t int64, v float64) error {
		out = append(out, TimeSeriesPoint{T: t, Value: v})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowExpectedSeries is the row-at-a-time oracle for ExpectedSeriesPar.
func rowExpectedSeries(p *storage.ProbTable, tLo, tHi int64) ([]TimeSeriesPoint, error) {
	return seriesOver(p, tLo, tHi, Expected)
}

// rowProbSeries is the row-at-a-time oracle for ProbSeriesPar.
func rowProbSeries(p *storage.ProbTable, tLo, tHi int64, lo, hi float64) ([]TimeSeriesPoint, error) {
	return seriesOver(p, tLo, tHi, func(rows []view.Row) (float64, error) {
		return RangeProb(rows, lo, hi)
	})
}

// eachProb runs fn over the per-tuple probability P(lo < R_t <= hi) for every
// timestamp in [tLo, tHi] in one indexed pass, without materialising the
// series.
func eachProb(p *storage.ProbTable, tLo, tHi int64, lo, hi float64, fn func(q float64) error) error {
	return eachTuple(p, tLo, tHi,
		func(rows []view.Row) (float64, error) { return RangeProb(rows, lo, hi) },
		func(_ int64, q float64) error { return fn(q) })
}

// rowExpectedCount is the row-at-a-time oracle for ExpectedCountPar.
func rowExpectedCount(p *storage.ProbTable, tLo, tHi int64, lo, hi float64) (float64, error) {
	sum := 0.0
	if err := eachProb(p, tLo, tHi, lo, hi, func(q float64) error {
		sum += q
		return nil
	}); err != nil {
		return 0, err
	}
	return sum, nil
}

// errStopScan is the sentinel an aggregate callback returns once its result
// is decided, ending the indexed pass early without surfacing an error.
var errStopScan = errors.New("probdb: stop scan")

// rowAnyInRange is the row-at-a-time oracle for AnyInRangePlan.
func rowAnyInRange(p *storage.ProbTable, tLo, tHi int64, lo, hi float64) (float64, error) {
	// Work in log space to stay accurate when many tuples are involved.
	logNone, certain := 0.0, false
	err := eachProb(p, tLo, tHi, lo, hi, func(q float64) error {
		if 1-q <= 0 {
			certain = true
			return errStopScan // a certain tuple decides the disjunction
		}
		logNone += math.Log(1 - q)
		return nil
	})
	if certain {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	return 1 - math.Exp(logNone), nil
}

// rowAllInRange is the row-at-a-time oracle for AllInRangePlan.
func rowAllInRange(p *storage.ProbTable, tLo, tHi int64, lo, hi float64) (float64, error) {
	logAll, impossible := 0.0, false
	err := eachProb(p, tLo, tHi, lo, hi, func(q float64) error {
		if q <= 0 {
			impossible = true
			return errStopScan // an impossible tuple decides the conjunction
		}
		logAll += math.Log(q)
		return nil
	})
	if impossible {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return math.Exp(logAll), nil
}

// atGroup runs fn on the rows of timestamp t, returning ErrNoRows when the
// view has no tuple at t.
func atGroup(p *storage.ProbTable, t int64, fn func(rows []view.Row) error) error {
	if p == nil {
		return fmt.Errorf("%w: nil view", ErrBadArg)
	}
	rows := p.RowsAt(t)
	if rows == nil {
		return ErrNoRows
	}
	return fn(rows)
}

// rowRangeProbAt is the row-at-a-time oracle for RangeProbAt.
func rowRangeProbAt(p *storage.ProbTable, t int64, lo, hi float64) (float64, error) {
	var out float64
	err := atGroup(p, t, func(rows []view.Row) error {
		pr, err := RangeProb(rows, lo, hi)
		out = pr
		return err
	})
	return out, err
}

// rowTopKAt is the row-at-a-time oracle for TopKAt.
func rowTopKAt(p *storage.ProbTable, t int64, k int) ([]view.Row, error) {
	var out []view.Row
	err := atGroup(p, t, func(rows []view.Row) error {
		top, err := TopK(rows, k)
		out = top
		return err
	})
	return out, err
}

// rowBucketQueryAt is the row-at-a-time oracle for BucketQueryAt.
func rowBucketQueryAt(p *storage.ProbTable, t int64, buckets []Bucket) ([]BucketProb, error) {
	var out []BucketProb
	err := atGroup(p, t, func(rows []view.Row) error {
		ps, err := BucketQuery(rows, buckets)
		out = ps
		return err
	})
	return out, err
}
