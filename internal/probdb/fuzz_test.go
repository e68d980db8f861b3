package probdb

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// Fuzz coverage for the probdb entry points over degenerate view rows:
// zero-width point masses, zero probabilities, inverted ranges. The
// invariant under fuzzing is totality — for any row soup inside the
// builder's output domain the queries either return a finite value or a
// wrapped package sentinel; they never return NaN/Inf and never panic.
// `go test` runs the seed corpus as regular unit tests.

// fuzzRows decodes up to four rows from the raw fuzz scalars; width and
// probability are reinterpreted so degenerate shapes (w == 0, p == 0,
// descending Lo) appear often.
func fuzzRows(n uint8, lo1, w1, p1, lo2, w2, p2 float64) []view.Row {
	raw := [][3]float64{{lo1, w1, p1}, {lo2, w2, p2}, {lo2, 0, p1}, {lo1, -w2, p2}}
	rows := make([]view.Row, 0, 4)
	for i := 0; i < int(n%5); i++ {
		r := raw[i%len(raw)]
		rows = append(rows, view.Row{
			T: 1, Lambda: i - 2, Lo: r[0], Hi: r[0] + r[1], Prob: r[2],
		})
	}
	return rows
}

// skipOutsideDomain skips row soups outside the builder's output domain:
// the totality contract covers finite rows of sane magnitude (bounds within
// ±1e150, masses in [0, 1e6] — wide enough that un-normalised inputs stay in
// scope, narrow enough that honest float overflow to Inf cannot occur).
// Degenerate shapes — zero-width, zero-probability, inverted ranges — stay
// in scope; they are the point of the fuzzing.
func skipOutsideDomain(t *testing.T, rows []view.Row) {
	t.Helper()
	for _, r := range rows {
		// !(x <= y) form also rejects NaN.
		if !(math.Abs(r.Lo) <= 1e150) || !(math.Abs(r.Hi) <= 1e150) ||
			!(r.Prob >= 0 && r.Prob <= 1e6) {
			t.Skip()
		}
	}
}

func finiteOrErr(t *testing.T, name string, v float64, err error) {
	t.Helper()
	if err != nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("%s returned non-finite %v without error", name, v)
	}
}

func FuzzRangeProb(f *testing.F) {
	f.Add(uint8(2), 0.0, 1.0, 0.5, 1.0, 1.0, 0.5, -1.0, 2.0)
	f.Add(uint8(3), 2.0, 0.0, 0.4, 2.0, 1.0, 0.6, 0.0, 5.0)  // zero-width point mass
	f.Add(uint8(4), 5.0, -1.0, 0.3, 1.0, 0.0, 0.0, 1.5, 1.5) // inverted + zero-prob
	f.Add(uint8(1), 0.0, 1e9, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, n uint8, lo1, w1, p1, lo2, w2, p2, qlo, qhi float64) {
		rows := fuzzRows(n, lo1, w1, p1, lo2, w2, p2)
		skipOutsideDomain(t, rows)
		v, err := RangeProb(rows, qlo, qhi)
		finiteOrErr(t, "RangeProb", v, err)
		if err == nil && v < 0 {
			t.Fatalf("RangeProb = %v < 0 for non-negative masses", v)
		}
	})
}

func FuzzExpected(f *testing.F) {
	f.Add(uint8(2), 0.0, 1.0, 0.5, 1.0, 1.0, 0.5)
	f.Add(uint8(1), 3.0, 0.0, 0.7, 0.0, 0.0, 0.0) // lone point mass
	f.Fuzz(func(t *testing.T, n uint8, lo1, w1, p1, lo2, w2, p2 float64) {
		rows := fuzzRows(n, lo1, w1, p1, lo2, w2, p2)
		skipOutsideDomain(t, rows)
		v, err := Expected(rows)
		finiteOrErr(t, "Expected", v, err)
	})
}

// FuzzColumnarKernels drives the columnar batch kernels and the
// row-at-a-time oracle with the same fuzzed table and query window; any
// divergence in value or error shape is a bug in one of the two scans. The
// table is assembled from two fuzzed tuples (including degenerate rows) and
// shifted onto timestamps 1 and 2; query windows and value ranges come
// untouched from the fuzzer, so empty, inverted and NaN-adjacent queries are
// all in scope.
func FuzzColumnarKernels(f *testing.F) {
	f.Add(uint8(3), 0.0, 1.0, 0.5, 1.0, 1.0, 0.5, uint8(2), 2.0, 0.0, 0.4, int8(0), int8(3), -1.0, 2.0)
	f.Add(uint8(2), 2.0, 0.0, 1.0, 0.0, 0.5, 0.2, uint8(4), 5.0, -1.0, 0.3, int8(2), int8(1), 0.0, 5.0) // inverted window
	f.Add(uint8(1), 0.0, 1e9, 1.0, 0.0, 0.0, 0.0, uint8(1), 1.0, 0.0, 0.0, int8(1), int8(2), 2.0, 1.0)  // inverted range
	// Ordered tables (every tuple's Lo and Hi ascend), where the kernels
	// narrow each tuple to the rows the range can touch: bounds inside a
	// row, on row edges, lo == hi on a zero-width row's point, -0, and a
	// range that misses the first tuple entirely.
	f.Add(uint8(2), 0.0, 1.0, 0.5, 1.0, 1.0, 0.5, uint8(2), -1.0, 1.0, 0.25, int8(0), int8(3), 0.5, 1.5)
	f.Add(uint8(2), 0.0, 1.0, 0.5, 1.0, 1.0, 0.5, uint8(2), -1.0, 1.0, 0.25, int8(1), int8(2), 0.0, 1.0)
	f.Add(uint8(3), 0.0, 1.0, 0.5, 1.0, 0.0, 0.5, uint8(3), -2.0, 2.0, 0.25, int8(1), int8(2), 1.0, 1.0)
	f.Add(uint8(3), 0.0, 1.0, 0.5, 1.0, 0.0, 0.5, uint8(3), -2.0, 2.0, 0.25, int8(1), int8(2), math.Copysign(0, -1), 0.0)
	f.Add(uint8(2), 0.0, 1.0, 0.5, 1.0, 1.0, 0.5, uint8(2), -1.0, 1.0, 0.25, int8(1), int8(2), 2.0, 3.0)
	f.Fuzz(func(t *testing.T, n1 uint8, lo1, w1, p1, lo2, w2, p2 float64,
		n2 uint8, lo3, w3, p3 float64, tLo8, tHi8 int8, qlo, qhi float64) {
		g1 := fuzzRows(n1, lo1, w1, p1, lo2, w2, p2)
		g2 := fuzzRows(n2, lo3, w3, p3, lo1, w2, p1)
		skipOutsideDomain(t, g1)
		skipOutsideDomain(t, g2)
		var rows []view.Row
		rows = append(rows, g1...)
		for _, r := range g2 {
			r.T = 2
			// Descending, gapped lambdas: the second tuple's probability
			// ties (fuzzRows repeats p1/p2) must break on the stored
			// Lambda, not on the row's position in its group.
			r.Lambda = int(n2) - 3*r.Lambda
			rows = append(rows, r)
		}
		p := storage.NewProbTable(storage.ViewMeta{Name: "pv"}, rows)
		tLo, tHi := int64(tLo8), int64(tHi8)

		gotE, _, errE := ExpectedSeriesPar(p, tLo, tHi, 1)
		wantE, werrE := rowExpectedSeries(p, tLo, tHi)
		if (errE != nil) != (werrE != nil) || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("ExpectedSeriesPar: columnar (%v, %v) vs oracle (%v, %v)", gotE, errE, wantE, werrE)
		}

		gotP, _, errP := ProbSeriesPar(p, tLo, tHi, qlo, qhi, 1)
		wantP, werrP := rowProbSeries(p, tLo, tHi, qlo, qhi)
		if (errP != nil) != (werrP != nil) || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("ProbSeriesPar: columnar (%v, %v) vs oracle (%v, %v)", gotP, errP, wantP, werrP)
		}

		gotC, _, errC := ExpectedCountPar(p, tLo, tHi, qlo, qhi, 1)
		wantC, werrC := rowExpectedCount(p, tLo, tHi, qlo, qhi)
		if (errC != nil) != (werrC != nil) || gotC != wantC {
			t.Fatalf("ExpectedCountPar: columnar (%v, %v) vs oracle (%v, %v)", gotC, errC, wantC, werrC)
		}

		gotAny, _, errAny := AnyInRangePlan(p, tLo, tHi, qlo, qhi)
		wantAny, werrAny := rowAnyInRange(p, tLo, tHi, qlo, qhi)
		if (errAny != nil) != (werrAny != nil) || gotAny != wantAny {
			t.Fatalf("AnyInRangePlan: columnar (%v, %v) vs oracle (%v, %v)", gotAny, errAny, wantAny, werrAny)
		}

		gotAll, _, errAll := AllInRangePlan(p, tLo, tHi, qlo, qhi)
		wantAll, werrAll := rowAllInRange(p, tLo, tHi, qlo, qhi)
		if (errAll != nil) != (werrAll != nil) || gotAll != wantAll {
			t.Fatalf("AllInRangePlan: columnar (%v, %v) vs oracle (%v, %v)", gotAll, errAll, wantAll, werrAll)
		}

		// Three-statistic fused pass vs its single-statistic projections,
		// both on the sequential fast path and with the worker pool forced
		// on. On success every statistic must match bit-for-bit; on failure
		// at least one projection must have failed too (the fused pass is
		// all-or-nothing across its statistics).
		oldCutoff := parCutoffRows
		for _, workers := range []int{1, 3} {
			parCutoffRows = 0
			fr, _, errF := FusedSeries(p, tLo, tHi, qlo, qhi, FusedStats{Expected: true, Prob: true, Count: true}, workers)
			parCutoffRows = oldCutoff
			if errF == nil {
				if errE != nil || errP != nil || errC != nil {
					t.Fatalf("fused(w=%d) succeeded; projections errored (%v, %v, %v)", workers, errE, errP, errC)
				}
				if !reflect.DeepEqual(fr.Expected, gotE) || !reflect.DeepEqual(fr.Prob, gotP) || fr.Count != gotC {
					t.Fatalf("fused(w=%d) diverged: (%v, %v, %v) vs (%v, %v, %v)",
						workers, fr.Expected, fr.Prob, fr.Count, gotE, gotP, gotC)
				}
			} else if errE == nil && errP == nil && errC == nil {
				t.Fatalf("fused(w=%d) errored %v; every projection succeeded", workers, errF)
			}
		}

		at := tLo
		gotAt, errAt := RangeProbAt(p, at, qlo, qhi)
		wantAt, werrAt := rowRangeProbAt(p, at, qlo, qhi)
		if (errAt != nil) != (werrAt != nil) || gotAt != wantAt {
			t.Fatalf("RangeProbAt: columnar (%v, %v) vs oracle (%v, %v)", gotAt, errAt, wantAt, werrAt)
		}

		for _, tt := range []int64{at, 2} {
			gotTop, errTop := TopKAt(p, tt, int(n1%4)+1)
			wantTop, werrTop := rowTopKAt(p, tt, int(n1%4)+1)
			if (errTop != nil) != (werrTop != nil) || !reflect.DeepEqual(gotTop, wantTop) {
				t.Fatalf("TopKAt(%d): columnar (%v, %v) vs oracle (%v, %v)", tt, gotTop, errTop, wantTop, werrTop)
			}
		}

		buckets := []Bucket{
			{Name: "a", Lo: math.Min(qlo, qhi), Hi: math.Max(qlo, qhi)},
			{Name: "b", Lo: lo1, Hi: lo1},
		}
		if !math.IsNaN(qlo) && !math.IsNaN(qhi) {
			gotB, errB := BucketQueryAt(p, at, buckets)
			wantB, werrB := rowBucketQueryAt(p, at, buckets)
			if (errB != nil) != (werrB != nil) || !reflect.DeepEqual(gotB, wantB) {
				t.Fatalf("BucketQueryAt: columnar (%v, %v) vs oracle (%v, %v)", gotB, errB, wantB, werrB)
			}
		}
	})
}

func FuzzTopK(f *testing.F) {
	f.Add(uint8(4), 0.0, 1.0, 0.5, 1.0, 0.0, 0.25, uint8(2))
	f.Fuzz(func(t *testing.T, n uint8, lo1, w1, p1, lo2, w2, p2 float64, k uint8) {
		rows := fuzzRows(n, lo1, w1, p1, lo2, w2, p2)
		skipOutsideDomain(t, rows)
		if top, err := TopK(rows, int(k%6)); err == nil {
			for i := 1; i < len(top); i++ {
				if top[i].Prob > top[i-1].Prob {
					t.Fatalf("TopK not descending at %d", i)
				}
			}
		}
	})
}
