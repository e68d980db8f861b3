package probdb

import (
	"errors"
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// twoTupleTable builds a view with two independent tuples:
// t=1: P((0,1]) = 0.5, P((1,2]) = 0.5
// t=2: P((0,1]) = 0.2, P((1,2]) = 0.8
func twoTupleTable() *storage.ProbTable {
	return tableOf(twoTupleRows())
}

func twoTupleRows() []view.Row {
	return []view.Row{
		{T: 1, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.5},
		{T: 1, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
		{T: 2, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.2},
		{T: 2, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.8},
	}
}

// tableOf builds a view named pv over rows.
func tableOf(rows []view.Row) *storage.ProbTable {
	return storage.NewProbTable(storage.ViewMeta{Name: "pv", Omega: view.Omega{Delta: 1, N: 2}}, rows)
}

func TestExpectedSeries(t *testing.T) {
	pts, err := ExpectedSeries(twoTupleTable(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// t=1: 0.5*0.5 + 1.5*0.5 = 1.0; t=2: 0.5*0.2 + 1.5*0.8 = 1.3.
	if math.Abs(pts[0].Value-1.0) > 1e-12 {
		t.Errorf("E[t=1] = %v", pts[0].Value)
	}
	if math.Abs(pts[1].Value-1.3) > 1e-12 {
		t.Errorf("E[t=2] = %v", pts[1].Value)
	}
	if _, err := ExpectedSeries(twoTupleTable(), 10, 20); !errors.Is(err, ErrNoRows) {
		t.Error("empty range accepted")
	}
	if _, err := ExpectedSeries(nil, 0, 10); !errors.Is(err, ErrBadArg) {
		t.Error("nil view accepted")
	}
}

func TestProbSeries(t *testing.T) {
	pts, err := ProbSeries(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].Value-0.5) > 1e-12 || math.Abs(pts[1].Value-0.8) > 1e-12 {
		t.Errorf("prob series = %+v", pts)
	}
}

func TestExpectedCount(t *testing.T) {
	c, err := ExpectedCount(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1.3) > 1e-12 {
		t.Errorf("expected count = %v, want 1.3", c)
	}
}

func TestAnyAllInRange(t *testing.T) {
	any, err := AnyInRange(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 - 0.5*0.2 = 0.9
	if math.Abs(any-0.9) > 1e-12 {
		t.Errorf("AnyInRange = %v", any)
	}
	all, err := AllInRange(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0.5*0.8 = 0.4
	if math.Abs(all-0.4) > 1e-12 {
		t.Errorf("AllInRange = %v", all)
	}
	// Degenerate: a certain tuple makes Any = 1.
	certain := twoTupleRows()
	certain[2].Prob = 0
	certain[3].Prob = 1
	pt := tableOf(certain)
	any, err = AnyInRange(pt, 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if any != 1 {
		t.Errorf("certain tuple: Any = %v", any)
	}
	// A zero-probability tuple makes All = 0.
	all, err = AllInRange(pt, 1, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if all != 0 {
		t.Errorf("impossible tuple: All = %v", all)
	}
}

func TestExceedanceCountDistribution(t *testing.T) {
	pmf, err := ExceedanceCountDistribution(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two tuples with p = 0.5 and 0.8:
	// P(0) = 0.5*0.2 = 0.1, P(1) = 0.5*0.2 + 0.5*0.8 = 0.5, P(2) = 0.4.
	want := []float64{0.1, 0.5, 0.4}
	if len(pmf) != 3 {
		t.Fatalf("pmf length %d", len(pmf))
	}
	total := 0.0
	for i, w := range want {
		if math.Abs(pmf[i]-w) > 1e-12 {
			t.Errorf("pmf[%d] = %v, want %v", i, pmf[i], w)
		}
		total += pmf[i]
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("pmf sums to %v", total)
	}
}

func TestCountAtLeast(t *testing.T) {
	p1, err := CountAtLeast(twoTupleTable(), 1, 2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-0.9) > 1e-12 {
		t.Errorf("P(count>=1) = %v, want 0.9", p1)
	}
	p2, err := CountAtLeast(twoTupleTable(), 1, 2, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p2-0.4) > 1e-12 {
		t.Errorf("P(count>=2) = %v, want 0.4", p2)
	}
	p0, err := CountAtLeast(twoTupleTable(), 1, 2, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p0-1) > 1e-12 {
		t.Errorf("P(count>=0) = %v", p0)
	}
	pBig, err := CountAtLeast(twoTupleTable(), 1, 2, 1, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pBig != 0 {
		t.Errorf("P(count>=5) = %v", pBig)
	}
	if _, err := CountAtLeast(twoTupleTable(), 1, 2, 1, 2, -1); !errors.Is(err, ErrBadArg) {
		t.Error("negative k accepted")
	}
}

// Consistency: AnyInRange must equal CountAtLeast(..., 1) and AllInRange
// must equal the top PMF entry.
func TestAggregateConsistency(t *testing.T) {
	pv := twoTupleTable()
	anyP, _ := AnyInRange(pv, 1, 2, 1, 2)
	atLeast1, _ := CountAtLeast(pv, 1, 2, 1, 2, 1)
	if math.Abs(anyP-atLeast1) > 1e-12 {
		t.Errorf("Any %v != P(count>=1) %v", anyP, atLeast1)
	}
	allP, _ := AllInRange(pv, 1, 2, 1, 2)
	pmf, _ := ExceedanceCountDistribution(pv, 1, 2, 1, 2)
	if math.Abs(allP-pmf[len(pmf)-1]) > 1e-12 {
		t.Errorf("All %v != P(count=n) %v", allP, pmf[len(pmf)-1])
	}
}
