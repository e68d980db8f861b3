package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro/internal/probdb"
	"repro/internal/server"
	"repro/internal/view"
)

// oracle answers read ops from the view's rows with the row-at-a-time
// helpers of probdb (RangeProb, Expected, TopK, BucketQuery over []Row) —
// code the daemon's columnar and parallel kernels do not share.
type oracle struct {
	rows   []view.Row
	groups map[int64][]view.Row // rows of one timestamp, in lambda order
}

func newOracle(rows []server.RowJSON) *oracle {
	o := &oracle{rows: make([]view.Row, len(rows)), groups: map[int64][]view.Row{}}
	for i, r := range rows {
		o.rows[i] = view.Row{T: r.T, Lambda: r.Lambda, Lo: r.Lo, Hi: r.Hi, Prob: r.Prob}
	}
	for lo := 0; lo < len(o.rows); {
		hi := lo
		for hi < len(o.rows) && o.rows[hi].T == o.rows[lo].T {
			hi++
		}
		o.groups[o.rows[lo].T] = o.rows[lo:hi]
		lo = hi
	}
	return o
}

// near compares two answers. SQL results are rendered with ten
// significant digits and window sums are associated differently by the
// chunked kernels, so equality is to a few parts in 1e9.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 2e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// fetch sends the op exactly as the load phase renders it and decodes the
// JSON answer into out.
func fetch(d *daemon, o *op, out any) error {
	req, err := http.NewRequest(o.method, d.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return err
	}
	resp, err := d.api.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// scalarCell parses the single cell of a one-number SQL result.
func scalarCell(res *server.QueryResponse, col int) (float64, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) <= col {
		return 0, fmt.Errorf("want one row, got %v", res.Rows)
	}
	return strconv.ParseFloat(res.Rows[0][col], 64)
}

// check asks the daemon the op's question and compares the answer with
// the oracle's.
func (or *oracle) check(d *daemon, o *op) error {
	err := or.compare(d, o)
	if err != nil {
		return fmt.Errorf("%s %s %s: %w", o.method, o.path, o.body, err)
	}
	return nil
}

func (or *oracle) compare(d *daemon, o *op) error {
	rows := or.groups[o.t]
	switch o.kind {
	case kindRangeProb:
		var got server.RangeProbResponse
		if err := fetch(d, o, &got); err != nil {
			return err
		}
		want, err := probdb.RangeProb(rows, o.lo, o.hi)
		if err != nil {
			return err
		}
		if got.Prob == nil || !near(*got.Prob, want) {
			return fmt.Errorf("prob %v, oracle %v", got.Prob, want)
		}
	case kindTopK:
		var got server.TopKResponse
		if err := fetch(d, o, &got); err != nil {
			return err
		}
		want, err := probdb.TopK(rows, 3)
		if err != nil {
			return err
		}
		if len(got.Rows) != len(want) {
			return fmt.Errorf("%d rows, oracle %d", len(got.Rows), len(want))
		}
		for i, r := range want {
			if g := got.Rows[i]; g.Lambda != r.Lambda || !near(g.Prob, r.Prob) {
				return fmt.Errorf("rank %d: lambda %d prob %v, oracle lambda %d prob %v", i, g.Lambda, g.Prob, r.Lambda, r.Prob)
			}
		}
	case kindBuckets:
		var got server.BucketsResponse
		if err := fetch(d, o, &got); err != nil {
			return err
		}
		buckets := make([]probdb.Bucket, len(o.buckets))
		for i, b := range o.buckets {
			buckets[i] = probdb.Bucket{Name: b.Name, Lo: b.Lo, Hi: b.Hi}
		}
		want, err := probdb.BucketQuery(rows, buckets)
		if err != nil {
			return err
		}
		byName := map[string]float64{}
		for _, b := range got.Buckets {
			byName[b.Name] = b.Prob
		}
		for _, b := range want {
			if p, ok := byName[b.Bucket.Name]; !ok || !near(p, b.Prob) || len(byName) != len(want) {
				return fmt.Errorf("bucket %s: prob %v, oracle %v", b.Bucket.Name, p, b.Prob)
			}
		}
	case kindSQLPoint:
		var got server.QueryResponse
		if err := fetch(d, o, &got); err != nil {
			return err
		}
		p, err := scalarCell(&got, 1)
		if err != nil {
			return err
		}
		want, err := probdb.RangeProb(rows, o.lo, o.hi)
		if err != nil {
			return err
		}
		if !near(p, want) {
			return fmt.Errorf("prob %v, oracle %v", p, want)
		}
	case kindScalar:
		var got server.QueryResponse
		if err := fetch(d, o, &got); err != nil {
			return err
		}
		count, err := scalarCell(&got, 0)
		if err != nil {
			return err
		}
		_, _, want, err := or.window(o)
		if err != nil {
			return err
		}
		if !near(count, want) {
			return fmt.Errorf("count %v, oracle %v", count, want)
		}
	case kindSeries:
		var got server.SeriesResponse
		if err := fetch(d, o, &got); err != nil {
			return err
		}
		expected, prob, count, err := or.window(o)
		if err != nil {
			return err
		}
		if got.Count == nil || !near(*got.Count, count) {
			return fmt.Errorf("count %v, oracle %v", got.Count, count)
		}
		if len(got.Expected) != len(expected) || len(got.Prob) != len(prob) {
			return fmt.Errorf("%d expected and %d prob points, oracle %d", len(got.Expected), len(got.Prob), len(expected))
		}
		for i := range expected {
			if g := got.Expected[i]; g.T != expected[i].T || !near(g.Value, expected[i].Value) {
				return fmt.Errorf("expected[%d] = %v, oracle %v", i, g, expected[i])
			}
			if g := got.Prob[i]; g.T != prob[i].T || !near(g.Value, prob[i].Value) {
				return fmt.Errorf("prob[%d] = %v, oracle %v", i, g, prob[i])
			}
		}
	default:
		return fmt.Errorf("no oracle for op kind %d", o.kind)
	}
	return nil
}

// window evaluates the three window statistics one timestamp at a time.
func (or *oracle) window(o *op) (expected, prob []server.TimeValueJSON, count float64, err error) {
	for t := o.t; t <= o.tHi; t++ {
		rows, ok := or.groups[t]
		if !ok {
			continue
		}
		e, err := probdb.Expected(rows)
		if err != nil {
			return nil, nil, 0, err
		}
		p, err := probdb.RangeProb(rows, o.lo, o.hi)
		if err != nil {
			return nil, nil, 0, err
		}
		expected = append(expected, server.TimeValueJSON{T: t, Value: e})
		prob = append(prob, server.TimeValueJSON{T: t, Value: p})
		count += p
	}
	return expected, prob, count, nil
}

// verifySample checks up to perKind ops of every kind in the lists, and
// returns how many it checked, how many disagreed, and the first
// disagreement.
func (or *oracle) verifySample(d *daemon, perKind int, lists ...[]op) (attempted, failed int, first error) {
	seen := map[opKind]int{}
	for _, ops := range lists {
		for i := range ops {
			o := &ops[i]
			if o.kind == kindIngest || seen[o.kind] >= perKind {
				continue
			}
			seen[o.kind]++
			attempted++
			if err := or.check(d, o); err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
	}
	return attempted, failed, first
}
