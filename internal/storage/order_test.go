package storage

import (
	"errors"
	"math"
	"testing"

	"repro/internal/view"
)

// Tests for what appendCols derives besides the columns: the order flag
// Cols.Ordered and each group's expected-value sums.

// colsOf returns the whole-table Cols and group index RangeCols hands out.
func colsOf(t *testing.T, p *ProbTable) ([]TimeGroup, Cols) {
	t.Helper()
	var groups []TimeGroup
	var c Cols
	if err := p.RangeCols(math.MinInt64, math.MaxInt64, func(gs []TimeGroup, cs Cols) error {
		groups, c = append([]TimeGroup{}, gs...), cs
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return groups, c
}

// grid is one tuple's Omega grid the way view.Builder lays it out:
// n ranges of width delta around rhat, ascending lambda.
func grid(t int64, rhat, delta float64, n int) []view.Row {
	rows := make([]view.Row, n)
	for i := range rows {
		lambda := i - n/2
		lo := rhat + float64(lambda)*delta
		rows[i] = view.Row{T: t, Lambda: lambda, Lo: lo, Hi: lo + delta, Prob: 1 / float64(n)}
	}
	return rows
}

func TestOrderFlag(t *testing.T) {
	ordered := func(p *ProbTable) bool {
		_, c := colsOf(t, p)
		return c.Ordered
	}
	if p := (&ProbTable{Name: "pv"}); !ordered(p) {
		t.Fatal("an empty table is not ordered")
	}

	// Builder grids, appended whole and then extending a group across two
	// appends with rows that continue its order: still ordered.
	p := NewProbTable(ViewMeta{Name: "pv"}, append(grid(1, 5, 0.5, 8), grid(2, 7, 0.5, 8)...))
	if !ordered(p) {
		t.Fatal("builder grids are not ordered")
	}
	g3 := grid(3, 6, 0.25, 6)
	if err := p.AppendRows(g3[:3]); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRows(g3[3:]); err != nil {
		t.Fatal(err)
	}
	if !ordered(p) {
		t.Fatal("a group extended in order across two appends lost the flag")
	}
	// Equal neighbours and a zero-width row keep the order (non-decreasing).
	if err := p.AppendRows([]view.Row{{T: 4, Lo: 1, Hi: 2}, {T: 4, Lo: 1, Hi: 2}, {T: 4, Lo: 2, Hi: 2}, {T: 4, Lo: 2, Hi: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	if !ordered(p) {
		t.Fatal("equal and zero-width rows broke the order")
	}

	// Extending that group across appends with a row below its last one
	// breaks the order, and the flag stays off for later ordered appends.
	if err := p.AppendRows([]view.Row{{T: 4, Lo: 1.5, Hi: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	if ordered(p) {
		t.Fatal("a group extended below its last row is still ordered")
	}
	if err := p.AppendRows(grid(5, 1, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if ordered(p) {
		t.Fatal("the flag came back after an ordered append")
	}

	// A descending next tuple is fine (order is within a tuple); an
	// unsorted one within a single append is not.
	q := NewProbTable(ViewMeta{Name: "q"}, append(grid(1, 9, 1, 4), grid(2, 1, 1, 4)...))
	if !ordered(q) {
		t.Fatal("order across tuples should not matter")
	}
	if err := q.AppendRows([]view.Row{{T: 3, Lo: 0, Hi: 1}, {T: 3, Lo: 2, Hi: 3}, {T: 3, Lo: 1, Hi: 4}}); err != nil {
		t.Fatal(err)
	}
	if ordered(q) {
		t.Fatal("an unsorted append is ordered")
	}

	// A NaN bound breaks it, even in a one-row tuple, on either column.
	for _, r := range []view.Row{{T: 1, Lo: math.NaN(), Hi: 1}, {T: 1, Lo: 0, Hi: math.NaN()}} {
		if n := NewProbTable(ViewMeta{Name: "n"}, []view.Row{r}); ordered(n) {
			t.Fatalf("row %+v is ordered", r)
		}
	}

	// SetLoader empties the columns and resets the flag; the load
	// re-derives it from the rows it delivers.
	q.SetLoader(4, func() ([]view.Row, error) { return grid(7, 3, 1, 4), nil })
	if !ordered(q) {
		t.Fatal("a lazy load of ordered rows after an unordered table is not ordered")
	}
	q.SetLoader(2, func() ([]view.Row, error) { return []view.Row{{T: 1, Lo: 1, Hi: 2}, {T: 1, Lo: 0, Hi: 2}}, nil })
	if ordered(q) {
		t.Fatal("a lazy load of unordered rows is ordered")
	}
	boom := errors.New("segment unreadable")
	q.SetLoader(1, func() ([]view.Row, error) { return nil, boom })
	if err := q.RangeCols(0, 9, func([]TimeGroup, Cols) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("RangeCols after a failed load = %v", err)
	}
}

// TestGroupSumsRowOrder pins Num and Den to the row-order sums of
// Expected's arithmetic, bit for bit, for tuples delivered whole and split
// across appends — including -0, ±Inf and NaN operands.
func TestGroupSumsRowOrder(t *testing.T) {
	rows := append(grid(1, 5, 0.5, 8),
		view.Row{T: 2, Lo: math.Inf(-1), Hi: 0, Prob: 0.25},
		view.Row{T: 2, Lo: 0, Hi: 0, Prob: math.Copysign(0, -1)},
		view.Row{T: 2, Lo: 0, Hi: math.Inf(1), Prob: 0.75},
		view.Row{T: 3, Lo: -1, Hi: 1, Prob: math.Copysign(0, -1)},
		view.Row{T: 4, Lo: 0.1, Hi: 0.7, Prob: 0.3},
		view.Row{T: 4, Lo: 0.7, Hi: 1.9, Prob: math.NaN()},
		view.Row{T: 4, Lo: 1.9, Hi: 2.3, Prob: 0.1},
	)
	rows = append(rows, grid(5, 3.3, 0.1, 64)...)
	var want []TimeGroup
	for i, r := range rows {
		if n := len(want); n == 0 || want[n-1].T != r.T {
			want = append(want, TimeGroup{T: r.T, Off: i})
		}
		want[len(want)-1].Len++
	}
	for i := range want {
		g := &want[i]
		num, den := 0.0, 0.0
		for _, r := range rows[g.Off : g.Off+g.Len] {
			mid := (r.Lo + r.Hi) / 2
			num += mid * r.Prob
			den += r.Prob
		}
		g.Num, g.Den = num, den
	}
	for _, split := range []int{0, 1, 4, 9, 11, 13, 15, len(rows)} {
		p := &ProbTable{Name: "pv"}
		if err := p.AppendRows(rows[:split]); err != nil {
			t.Fatal(err)
		}
		if err := p.AppendRows(rows[split:]); err != nil {
			t.Fatal(err)
		}
		got, _ := colsOf(t, p)
		if len(got) != len(want) {
			t.Fatalf("split %d: %d groups, want %d", split, len(got), len(want))
		}
		for i := range want {
			if !sameGroup(got[i], want[i]) {
				t.Fatalf("split %d: group %d = %+v, want %+v", split, i, got[i], want[i])
			}
		}
	}
	if g, _ := colsOf(t, NewProbTable(ViewMeta{Name: "z"}, rows[11:12])); math.Signbit(g[0].Den) || math.Signbit(g[0].Num) {
		t.Fatalf("a -0 mass tuple's sums = %+v, want +0 as 0.0 + -0 gives", g[0])
	}
}
