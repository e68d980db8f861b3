package probdb

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// Property tests pinning every column kernel byte-identical to the
// row-at-a-time oracle in oracle_test.go — same values (reflect.DeepEqual, no
// tolerance), same errors — over randomized tables that include zero-width
// point masses, zero-probability ranges and query windows with no groups.

// sameErr requires both sides to fail identically: same nil-ness and, when
// non-nil, the same package sentinel.
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got != nil) != (want != nil) {
		t.Fatalf("%s: columnar err %v, oracle err %v", what, got, want)
	}
	if got != nil && errors.Is(got, ErrNoRows) != errors.Is(want, ErrNoRows) {
		t.Fatalf("%s: sentinel mismatch: %v vs %v", what, got, want)
	}
	if got != nil && errors.Is(got, ErrBadArg) != errors.Is(want, ErrBadArg) {
		t.Fatalf("%s: sentinel mismatch: %v vs %v", what, got, want)
	}
}

func checkKernelsMatch(t *testing.T, p *storage.ProbTable, tLo, tHi int64, lo, hi float64) {
	t.Helper()

	gotE, _, errE := ExpectedSeriesPar(p, tLo, tHi, 1)
	wantE, werrE := rowExpectedSeries(p, tLo, tHi)
	sameErr(t, "ExpectedSeriesPar", errE, werrE)
	if !reflect.DeepEqual(gotE, wantE) {
		t.Fatalf("ExpectedSeriesPar(%d,%d) diverged from row oracle", tLo, tHi)
	}

	gotP, _, errP := ProbSeriesPar(p, tLo, tHi, lo, hi, 1)
	wantP, werrP := rowProbSeries(p, tLo, tHi, lo, hi)
	sameErr(t, "ProbSeriesPar", errP, werrP)
	if !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("ProbSeriesPar(%d,%d,%v,%v) diverged from row oracle", tLo, tHi, lo, hi)
	}

	gotC, _, errC := ExpectedCountPar(p, tLo, tHi, lo, hi, 1)
	wantC, werrC := rowExpectedCount(p, tLo, tHi, lo, hi)
	sameErr(t, "ExpectedCountPar", errC, werrC)
	if gotC != wantC {
		t.Fatalf("ExpectedCountPar = %v, oracle %v", gotC, wantC)
	}

	gotAny, _, errAny := AnyInRangePlan(p, tLo, tHi, lo, hi)
	wantAny, werrAny := rowAnyInRange(p, tLo, tHi, lo, hi)
	sameErr(t, "AnyInRangePlan", errAny, werrAny)
	if gotAny != wantAny {
		t.Fatalf("AnyInRangePlan = %v, oracle %v", gotAny, wantAny)
	}

	gotAll, _, errAll := AllInRangePlan(p, tLo, tHi, lo, hi)
	wantAll, werrAll := rowAllInRange(p, tLo, tHi, lo, hi)
	sameErr(t, "AllInRangePlan", errAll, werrAll)
	if gotAll != wantAll {
		t.Fatalf("AllInRangePlan = %v, oracle %v", gotAll, wantAll)
	}
}

func checkPointHelpersMatch(t *testing.T, p *storage.ProbTable, at int64, lo, hi float64) {
	t.Helper()

	gotAt, errAt := RangeProbAt(p, at, lo, hi)
	wantAt, werrAt := rowRangeProbAt(p, at, lo, hi)
	sameErr(t, "RangeProbAt", errAt, werrAt)
	if gotAt != wantAt {
		t.Fatalf("RangeProbAt(%d) = %v, oracle %v", at, gotAt, wantAt)
	}

	for _, k := range []int{0, 1, 3, 100} {
		gotTop, errTop := TopKAt(p, at, k)
		wantTop, werrTop := rowTopKAt(p, at, k)
		sameErr(t, "TopKAt", errTop, werrTop)
		if errTop == nil && !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("TopKAt(%d, k=%d) diverged from row oracle", at, k)
		}
	}

	buckets := []Bucket{
		{Name: "low", Lo: lo - 1, Hi: lo + 1},
		{Name: "mid", Lo: lo, Hi: hi},
		{Name: "high", Lo: hi, Hi: hi + 2},
		{Name: "point", Lo: lo, Hi: lo},
	}
	gotB, errB := BucketQueryAt(p, at, buckets)
	wantB, werrB := rowBucketQueryAt(p, at, buckets)
	sameErr(t, "BucketQueryAt", errB, werrB)
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("BucketQueryAt(%d) diverged from row oracle", at)
	}
	// No buckets: ErrNoRows when the tuple is missing (like the oracle),
	// ErrBadArg otherwise.
	_, errNil := BucketQueryAt(p, at, nil)
	_, werrNil := rowBucketQueryAt(p, at, nil)
	sameErr(t, "BucketQueryAt(nil)", errNil, werrNil)
	bad := []Bucket{{Name: "inv", Lo: 2, Hi: 1}}
	gotBad, errBad := BucketQueryAt(p, at, bad)
	wantBad, werrBad := rowBucketQueryAt(p, at, bad)
	sameErr(t, "BucketQueryAt(inverted)", errBad, werrBad)
	if !reflect.DeepEqual(gotBad, wantBad) {
		t.Fatalf("BucketQueryAt(inverted bucket) diverged from row oracle")
	}
}

// TestColumnarKernelsMatchRowOracle is the main equivalence sweep: random
// tables (built through AppendRows, so columns grow incrementally), random
// query windows including empty and inverted ones, random value ranges
// including invalid ones.
func TestColumnarKernelsMatchRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		p := randomView(rng, 1+rng.Intn(30))
		times := p.Times()
		maxT := times[len(times)-1]
		for q := 0; q < 15; q++ {
			tLo := int64(rng.Intn(int(maxT)+2)) - 1
			tHi := tLo + int64(rng.Intn(int(maxT)+2)) - 1 // occasionally inverted
			lo := rng.Float64() * 12
			hi := lo + rng.Float64()*3
			if rng.Intn(10) == 0 {
				lo, hi = hi, lo // invalid range: both paths must reject alike
			}
			checkKernelsMatch(t, p, tLo, tHi, lo, hi)

			at := times[rng.Intn(len(times))]
			if rng.Intn(4) == 0 {
				at = maxT + 10 // no tuple at this timestamp
			}
			checkPointHelpersMatch(t, p, at, math.Min(lo, hi), math.Max(lo, hi))
		}
	}
}

// TestColumnarKernelsDirectAssignment covers tables built whole by
// NewProbTable (offline build / gob decode shape) instead of grown by
// AppendRows.
func TestColumnarKernelsDirectAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		src := randomView(rng, 1+rng.Intn(20))
		p := storage.NewProbTable(src.Meta(), src.SnapshotRows())
		times := src.Times()
		maxT := times[len(times)-1]
		checkKernelsMatch(t, p, 0, maxT, 1, 4)
		checkPointHelpersMatch(t, p, times[rng.Intn(len(times))], 1, 4)
	}
}

// TestColumnarKernelsNilAndEmpty pins the degenerate inputs.
func TestColumnarKernelsNilAndEmpty(t *testing.T) {
	if _, _, err := ExpectedSeriesPar(nil, 0, 10, 1); !errors.Is(err, ErrBadArg) {
		t.Errorf("nil view: %v", err)
	}
	if _, _, err := ProbSeriesPar(nil, 0, 10, 0, 1, 1); !errors.Is(err, ErrBadArg) {
		t.Errorf("nil view: %v", err)
	}
	if _, err := RangeProbAt(nil, 1, 0, 1); !errors.Is(err, ErrBadArg) {
		t.Errorf("nil view: %v", err)
	}
	empty := &storage.ProbTable{Name: "pv"}
	if _, _, err := ExpectedSeriesPar(empty, 0, 10, 1); !errors.Is(err, ErrNoRows) {
		t.Errorf("empty view: %v", err)
	}
	// Empty range + invalid value range: no-rows wins, like the row path.
	p := randomView(rand.New(rand.NewSource(1)), 5)
	maxT := p.Times()[len(p.Times())-1]
	if _, _, err := ProbSeriesPar(p, maxT+5, maxT+9, 4, 2, 1); !errors.Is(err, ErrNoRows) {
		t.Errorf("empty window with bad range: %v", err)
	}
	// Non-empty window + invalid value range: bad-arg, like the row path.
	if _, _, err := ProbSeriesPar(p, 0, maxT, 4, 2, 1); !errors.Is(err, ErrBadArg) {
		t.Errorf("bad range: %v", err)
	}
}

// TestColumnarKernelsUnderConcurrentAppend runs the batch kernels while
// AppendRows extends the view; under -race this pins the column slices'
// locking. Aggregate values must always reflect whole tuples.
func TestColumnarKernelsUnderConcurrentAppend(t *testing.T) {
	const tuples = 300
	p := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 1, N: 2}}
	p.AppendRows([]view.Row{
		{T: 0, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.5},
		{T: 0, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= tuples; i++ {
			p.AppendRows([]view.Row{
				{T: int64(i), Lambda: -1, Lo: 0, Hi: 1, Prob: 0.5},
				{T: int64(i), Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
			})
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				series, _, err := ExpectedSeriesPar(p, 0, tuples, 1)
				if err != nil {
					t.Error(err)
					return
				}
				for _, pt := range series {
					// Every complete tuple has E = 1.0 by construction.
					if math.Abs(pt.Value-1.0) > 1e-12 {
						t.Errorf("torn tuple at t=%d: E=%v", pt.T, pt.Value)
						return
					}
				}
				if _, _, err := AllInRangePlan(p, 0, tuples, 0, 2); err != nil {
					t.Error(err)
					return
				}
				if _, err := RangeProbAt(p, 0, 0, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
