package storage

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/view"
)

// rowModel is the trivially-correct reference for a ProbTable: the rows it
// holds as a plain slice.
type rowModel struct {
	rows []view.Row
}

func (m *rowModel) lastT() int64 {
	if len(m.rows) > 0 {
		return m.rows[len(m.rows)-1].T
	}
	return 0
}

func (m *rowModel) inRange(lo, hi int64) []view.Row {
	out := []view.Row{}
	for _, r := range m.rows {
		if r.T >= lo && r.T <= hi {
			out = append(out, r)
		}
	}
	return out
}

// modelGroups recomputes the group layout of rows from scratch, with each
// group's expected-value sums taken over its rows in order.
func modelGroups(rows []view.Row) []TimeGroup {
	var gs []TimeGroup
	for i, r := range rows {
		if n := len(gs); n == 0 || gs[n-1].T != r.T {
			gs = append(gs, TimeGroup{T: r.T, Off: i})
		}
		g := &gs[len(gs)-1]
		g.Len++
		mid := (r.Lo + r.Hi) / 2
		g.Num += mid * r.Prob
		g.Den += r.Prob
	}
	return gs
}

// modelOrdered recomputes the order flag of rows from scratch: no NaN
// bound, and within each timestamp Lo and Hi non-decreasing.
func modelOrdered(rows []view.Row) bool {
	for i, r := range rows {
		if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) {
			return false
		}
		if i > 0 && rows[i-1].T == r.T && (r.Lo < rows[i-1].Lo || r.Hi < rows[i-1].Hi) {
			return false
		}
	}
	return true
}

// sameGroup compares group-index entries, the sums bit for bit except
// that any two NaNs match: a NaN's payload and sign depend on which
// operand the compiled add takes first, which Go does not fix.
func sameGroup(a, b TimeGroup) bool {
	return a.T == b.T && a.Off == b.Off && a.Len == b.Len &&
		sameSum(a.Num, b.Num) && sameSum(a.Den, b.Den)
}

func sameSum(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// sameRows compares bit for bit, so NaN payloads and signed zeros count.
func sameRows(a, b []view.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.Lambda != y.Lambda ||
			math.Float64bits(x.Lo) != math.Float64bits(y.Lo) ||
			math.Float64bits(x.Hi) != math.Float64bits(y.Hi) ||
			math.Float64bits(x.Prob) != math.Float64bits(y.Prob) {
			return false
		}
	}
	return true
}

var oddFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}

func modelFloat(rng *rand.Rand) float64 {
	if rng.Intn(6) == 0 {
		return oddFloats[rng.Intn(len(oddFloats))]
	}
	return rng.NormFloat64() * 10
}

// modelBatch draws rows continuing after timestamp last: it may first
// repeat last (extending the table's final group), then moves on to new
// timestamps with ragged group sizes. Lambda is arbitrary — not the in-group
// position — and rows may be zero-width.
func modelBatch(rng *rand.Rand, last int64, repeat bool) []view.Row {
	var rows []view.Row
	t := last
	for g := rng.Intn(4); g >= 0; g-- {
		if !repeat {
			t += 1 + int64(rng.Intn(3))
		}
		repeat = false
		for n := 1 + rng.Intn(4); n > 0; n-- {
			lo := modelFloat(rng)
			hi := lo
			if rng.Intn(4) != 0 {
				hi = modelFloat(rng)
			}
			rows = append(rows, view.Row{T: t, Lambda: rng.Intn(2001) - 1000, Lo: lo, Hi: hi, Prob: modelFloat(rng)})
		}
	}
	return rows
}

// gridBatch orders a modelBatch in place the way builder grids are: NaN
// bounds become 0, and each timestamp's Lo and Hi are sorted ascending
// (separately, so a row may still be inverted or zero-width). Only the
// batch is ordered: its first timestamp may extend the table's last group
// with rows below that group's last row.
func gridBatch(rows []view.Row) {
	for start := 0; start < len(rows); {
		end := start + 1
		for end < len(rows) && rows[end].T == rows[start].T {
			end++
		}
		var los, his []float64
		for _, r := range rows[start:end] {
			los, his = append(los, zeroNaN(r.Lo)), append(his, zeroNaN(r.Hi))
		}
		sort.Float64s(los)
		sort.Float64s(his)
		for i := range los {
			rows[start+i].Lo, rows[start+i].Hi = los[i], his[i]
		}
		start = end
	}
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// TestTableMatchesRowModel drives random interleavings of appends and
// every accessor against rowModel. Odd trials draw grid-ordered batches, so
// the order flag is seen holding and broken by an extending append.
func TestTableMatchesRowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 150; trial++ {
		draw := func(last int64, repeat bool) []view.Row {
			rows := modelBatch(rng, last, repeat)
			if trial%2 == 1 {
				gridBatch(rows)
			}
			return rows
		}
		p := &ProbTable{Name: "pv"}
		m := &rowModel{}
		if trial%3 == 0 {
			seed := draw(0, false)
			p = NewProbTable(ViewMeta{Name: "pv"}, seed)
			m.rows = seed
		}
		for op := 0; op < 60; op++ {
			lo := m.lastT()/2 - 2 + int64(rng.Intn(4))
			hi := lo + int64(rng.Intn(int(m.lastT())+4)) - 2 // sometimes inverted
			switch rng.Intn(12) {
			case 0, 1, 2:
				batch := draw(m.lastT(), len(m.rows) > 0 && rng.Intn(3) == 0)
				if err := p.AppendRows(batch); err != nil {
					t.Fatal(err)
				}
				m.rows = append(m.rows, batch...)
			case 3:
				at := lo + 1
				want := m.inRange(at, at)
				got := p.RowsAt(at)
				if !sameRows(got, want) || (len(want) == 0) != (got == nil) {
					t.Fatalf("trial %d op %d: RowsAt(%d) = %v, want %v", trial, op, at, got, want)
				}
			case 4:
				if got, want := p.RowsRange(lo, hi), m.inRange(lo, hi); got == nil || !sameRows(got, want) {
					t.Fatalf("trial %d op %d: RowsRange(%d,%d) = %v; want %v", trial, op, lo, hi, got, want)
				}
			case 5:
				if got := p.SnapshotRows(); !sameRows(got, m.rows) {
					t.Fatalf("trial %d op %d: SnapshotRows = %v, want %v", trial, op, got, m.rows)
				}
			case 6:
				got, want := p.Times(), modelGroups(m.rows)
				if len(got) != len(want) || p.NumTimes() != len(want) {
					t.Fatalf("trial %d op %d: Times = %v, want %d groups", trial, op, got, len(want))
				}
				for i, g := range want {
					if got[i] != g.T {
						t.Fatalf("trial %d op %d: Times[%d] = %d, want %d", trial, op, i, got[i], g.T)
					}
				}
			case 7:
				want := m.inRange(lo, hi)
				if g, r := p.RangeSize(lo, hi); g != len(modelGroups(want)) || r != len(want) {
					t.Fatalf("trial %d op %d: RangeSize(%d,%d) = %d, %d; want %d, %d",
						trial, op, lo, hi, g, r, len(modelGroups(want)), len(want))
				}
			case 8:
				var got []view.Row
				err := p.ForEachGroupCols(lo, hi, func(g GroupCols) error {
					if len(g.Lambda) == 0 || len(g.Lo) != len(g.Lambda) || len(g.Hi) != len(g.Lambda) || len(g.Prob) != len(g.Lambda) {
						t.Fatalf("trial %d op %d: ragged group at t=%d", trial, op, g.T)
					}
					for i := range g.Lambda {
						got = append(got, view.Row{T: g.T, Lambda: g.Lambda[i], Lo: g.Lo[i], Hi: g.Hi[i], Prob: g.Prob[i]})
					}
					return nil
				})
				if err != nil {
					t.Fatalf("trial %d op %d: ForEachGroupCols err = %v", trial, op, err)
				}
				if !sameRows(got, m.inRange(lo, hi)) {
					t.Fatalf("trial %d op %d: ForEachGroupCols(%d,%d) = %v", trial, op, lo, hi, got)
				}
			case 9:
				called := false
				err := p.RangeCols(lo, hi, func(groups []TimeGroup, c Cols) error {
					called = true
					all := modelGroups(m.rows)
					var want []TimeGroup
					for _, g := range all {
						if g.T >= lo && g.T <= hi {
							want = append(want, g)
						}
					}
					if len(groups) != len(want) {
						t.Fatalf("trial %d op %d: RangeCols(%d,%d) %d groups, want %d", trial, op, lo, hi, len(groups), len(want))
					}
					for i := range want {
						if !sameGroup(groups[i], want[i]) {
							t.Fatalf("trial %d op %d: group %d = %+v, want %+v", trial, op, i, groups[i], want[i])
						}
					}
					if c.Ordered != modelOrdered(m.rows) {
						t.Fatalf("trial %d op %d: Ordered = %v, want %v", trial, op, c.Ordered, !c.Ordered)
					}
					got := make([]view.Row, len(c.Prob))
					for _, g := range all { // the columns span the whole table; Lambda is not among them
						for i := g.Off; i < g.Off+g.Len; i++ {
							got[i] = view.Row{T: g.T, Lambda: m.rows[i].Lambda, Lo: c.Lo[i], Hi: c.Hi[i], Prob: c.Prob[i]}
						}
					}
					if !sameRows(got, m.rows) {
						t.Fatalf("trial %d op %d: RangeCols columns diverge from the model", trial, op)
					}
					return nil
				})
				if err != nil || !called {
					t.Fatalf("trial %d op %d: RangeCols called=%v err=%v", trial, op, called, err)
				}
			case 10:
				from := rng.Intn(len(m.rows)+3) - 1
				st := p.captureState(from)
				from = max(0, min(from, len(m.rows)))
				if st.From != from || st.Total != len(m.rows) || !sameRows(st.Rows, m.rows[from:]) {
					t.Fatalf("trial %d op %d: captureState(%d) = %+v", trial, op, from, st)
				}
			case 11:
				if got := p.NumRows(); got != len(m.rows) {
					t.Fatalf("trial %d op %d: NumRows = %d, want %d", trial, op, got, len(m.rows))
				}
			}
		}
	}
}
