package probdb

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// randomView builds a probabilistic view with randomized tuples, including
// degenerate rows: zero-width point masses and zero-probability ranges.
func randomView(rng *rand.Rand, tuples int) *storage.ProbTable {
	p := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: 4}}
	t := int64(0)
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3))
		n := 2 + rng.Intn(4)
		base := rng.Float64() * 10
		var rows []view.Row
		for l := 0; l < n; l++ {
			lo := base + float64(l)*0.5
			hi := lo + 0.5
			if rng.Intn(8) == 0 {
				hi = lo // degenerate zero-width point mass
			}
			prob := rng.Float64() / float64(n)
			if rng.Intn(8) == 0 {
				prob = 0 // degenerate zero-probability range
			}
			rows = append(rows, view.Row{T: t, Lambda: l - n/2, Lo: lo, Hi: hi, Prob: prob})
		}
		p.AppendRows(rows)
	}
	return p
}

// TestIndexedAggregatesMatchLegacyScan sweeps random windows against the row
// oracle — a flat scan over materialised rows — and checks the point helpers
// against the per-tuple row functions on RowsAt.
func TestIndexedAggregatesMatchLegacyScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		p := randomView(rng, 1+rng.Intn(30))
		times := p.Times()
		maxT := times[len(times)-1]
		for q := 0; q < 20; q++ {
			tLo := int64(rng.Intn(int(maxT)+2)) - 1
			tHi := tLo + int64(rng.Intn(int(maxT)+2))
			lo := rng.Float64() * 12
			hi := lo + rng.Float64()*3

			gotE, _, errE := ExpectedSeriesPar(p, tLo, tHi, 1)
			wantE, werrE := rowExpectedSeries(p, tLo, tHi)
			if (errE != nil) != (werrE != nil) {
				t.Fatalf("ExpectedSeriesPar err %v vs %v", errE, werrE)
			}
			if !reflect.DeepEqual(gotE, wantE) {
				t.Fatalf("trial %d: ExpectedSeriesPar(%d,%d) diverged from flat scan", trial, tLo, tHi)
			}

			gotP, _, errP := ProbSeriesPar(p, tLo, tHi, lo, hi, 1)
			wantP, werrP := rowProbSeries(p, tLo, tHi, lo, hi)
			if (errP != nil) != (werrP != nil) {
				t.Fatalf("ProbSeriesPar err %v vs %v", errP, werrP)
			}
			if !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("trial %d: ProbSeriesPar(%d,%d) diverged from flat scan", trial, tLo, tHi)
			}

			gotC, _, errC := ExpectedCountPar(p, tLo, tHi, lo, hi, 1)
			wantC, werrC := rowExpectedCount(p, tLo, tHi, lo, hi)
			if (errC != nil) != (werrC != nil) || gotC != wantC {
				t.Fatalf("trial %d: ExpectedCountPar = %v (%v), flat scan %v (%v)", trial, gotC, errC, wantC, werrC)
			}

			// Point helpers match querying the copied rows directly.
			at := times[rng.Intn(len(times))]
			gotAt, err := RangeProbAt(p, at, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			wantAt, err := RangeProb(p.RowsAt(at), lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if gotAt != wantAt {
				t.Fatalf("RangeProbAt(%d) = %v, want %v", at, gotAt, wantAt)
			}
			gotTop, err := TopKAt(p, at, 3)
			if err != nil {
				t.Fatal(err)
			}
			wantTop, err := TopK(p.RowsAt(at), 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTop, wantTop) {
				t.Fatalf("TopKAt(%d) diverged", at)
			}
		}
	}
}

// TestIndexedAggregatesUnderConcurrentAppend runs the window aggregates
// while AppendRows extends the view; under -race this pins the locking. Aggregate values must always reflect whole tuples.
func TestIndexedAggregatesUnderConcurrentAppend(t *testing.T) {
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
				if _, _, err := ExpectedCountPar(p, 0, tuples, 0, 2, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRangeProbZeroWidthRows pins the NaN fix: zero-width Omega rows are
// point masses, counted fully iff lo < Lo <= hi, never divided by their
// width.
func TestRangeProbZeroWidthRows(t *testing.T) {
	rows := []view.Row{
		{T: 1, Lambda: -1, Lo: 2, Hi: 2, Prob: 0.4}, // point mass at 2
		{T: 1, Lambda: 0, Lo: 2, Hi: 3, Prob: 0.6},
	}
	// A tuple whose outer row is unbounded: a range covering it whole adds
	// its mass outright instead of dividing Inf by Inf.
	tail := []view.Row{
		{T: 1, Lambda: -1, Lo: math.Inf(-1), Hi: -1.75, Prob: 0.25},
		{T: 1, Lambda: 0, Lo: -1.75, Hi: 0, Prob: 0.75},
	}
	cases := []struct {
		rows         []view.Row // nil: rows
		lo, hi, want float64
	}{
		{nil, 0, 5, 1.0},    // point mass inside (0,5]
		{nil, 2, 5, 0.6},    // lo < Lo fails: (2,5] excludes the mass at 2
		{nil, 1, 2, 0.4},    // hi inclusive: (1,2] includes the mass at 2
		{nil, 3, 9, 0.0},    // fully to the right
		{nil, -1, 1.5, 0.0}, // fully to the left
		{tail, math.Inf(-1), math.Inf(1), 1.0},
	}
	for _, tc := range cases {
		rs := tc.rows
		if rs == nil {
			rs = rows
		}
		got, err := RangeProb(rs, tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("RangeProb(%v,%v) = %v: non-finite", tc.lo, tc.hi, got)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("RangeProb(%v,%v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}

	// All-point-mass tuple: total mass must be preserved, not dropped.
	pm := []view.Row{{T: 1, Lo: 1, Hi: 1, Prob: 1}}
	if got, _ := RangeProb(pm, 0, 2); got != 1 {
		t.Errorf("all-point-mass RangeProb = %v, want 1", got)
	}
}

// TestQuantileDegenerateRows covers zero-width buckets in the per-tuple
// reducers that survive Quantile's removal: a point mass between two
// intervals, and a distribution that is a point mass alone.
func TestQuantileDegenerateRows(t *testing.T) {
	rows := []view.Row{
		{T: 1, Lo: 0, Hi: 1, Prob: 0.25},
		{T: 1, Lo: 1, Hi: 1, Prob: 0.5}, // point mass straddles the median
		{T: 1, Lo: 1, Hi: 2, Prob: 0.25},
	}
	// E = 0.5*0.25 + 1*0.5 + 1.5*0.25 = 1
	e, err := Expected(rows)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(e) || math.Abs(e-1) > 1e-12 {
		t.Errorf("Expected = %v, want 1", e)
	}

	// Expected over a pure point mass is the point itself.
	e, err = Expected([]view.Row{{T: 1, Lo: 3, Hi: 3, Prob: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-3) > 1e-12 {
		t.Errorf("Expected(point mass at 3) = %v", e)
	}
}
