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
	pts, _, err := ExpectedSeriesPar(twoTupleTable(), 1, 2, 1)
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
	if _, _, err := ExpectedSeriesPar(twoTupleTable(), 10, 20, 1); !errors.Is(err, ErrNoRows) {
		t.Error("empty range accepted")
	}
	if _, _, err := ExpectedSeriesPar(nil, 0, 10, 1); !errors.Is(err, ErrBadArg) {
		t.Error("nil view accepted")
	}
}

func TestProbSeries(t *testing.T) {
	pts, _, err := ProbSeriesPar(twoTupleTable(), 1, 2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pts[0].Value-0.5) > 1e-12 || math.Abs(pts[1].Value-0.8) > 1e-12 {
		t.Errorf("prob series = %+v", pts)
	}
}

func TestExpectedCount(t *testing.T) {
	c, _, err := ExpectedCountPar(twoTupleTable(), 1, 2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1.3) > 1e-12 {
		t.Errorf("expected count = %v, want 1.3", c)
	}
}

func TestAnyAllInRange(t *testing.T) {
	any, _, err := AnyInRangePlan(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 - 0.5*0.2 = 0.9
	if math.Abs(any-0.9) > 1e-12 {
		t.Errorf("AnyInRangePlan = %v", any)
	}
	all, _, err := AllInRangePlan(twoTupleTable(), 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0.5*0.8 = 0.4
	if math.Abs(all-0.4) > 1e-12 {
		t.Errorf("AllInRangePlan = %v", all)
	}
	// Degenerate: a certain tuple makes Any = 1.
	certain := twoTupleRows()
	certain[2].Prob = 0
	certain[3].Prob = 1
	pt := tableOf(certain)
	any, _, err = AnyInRangePlan(pt, 1, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if any != 1 {
		t.Errorf("certain tuple: Any = %v", any)
	}
	// A zero-probability tuple makes All = 0.
	all, _, err = AllInRangePlan(pt, 1, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if all != 0 {
		t.Errorf("impossible tuple: All = %v", all)
	}
}

// Consistency: the early-stop reducers must agree with the probability
// series they fold: AnyInRange is 1 - prod(1 - p_t), AllInRange prod(p_t).
func TestAggregateConsistency(t *testing.T) {
	pv := twoTupleTable()
	probs, _, err := ProbSeriesPar(pv, 1, 2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	none, all := 1.0, 1.0
	for _, pt := range probs {
		none *= 1 - pt.Value
		all *= pt.Value
	}
	anyP, _, _ := AnyInRangePlan(pv, 1, 2, 1, 2)
	if math.Abs(anyP-(1-none)) > 1e-12 {
		t.Errorf("Any %v != 1 - prod(1 - p_t) %v", anyP, 1-none)
	}
	allP, _, _ := AllInRangePlan(pv, 1, 2, 1, 2)
	if math.Abs(allP-all) > 1e-12 {
		t.Errorf("All %v != prod(p_t) %v", allP, all)
	}
}
