package storage

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/view"
)

// rowModel is the trivially-correct reference for a ProbTable: the rows it
// holds as a plain slice, plus what a pending lazy load will deliver.
type rowModel struct {
	rows    []view.Row
	armed   bool       // a loader is set and has not run yet
	loads   []view.Row // what the armed loader returns (nil with loadErr set: it fails)
	loadN   int        // row count the table reports while the load is pending or failed
	failing error      // the error the armed loader returns
	loadErr error      // sticky error of a load that ran and failed
}

// touch is what any row-reading accessor does first: run the pending load.
func (m *rowModel) touch() {
	if !m.armed {
		return
	}
	m.armed = false
	if m.failing != nil {
		m.loadErr = m.failing
		return
	}
	m.rows, m.loadN = m.loads, 0
}

func (m *rowModel) numRows() int { return m.loadN + len(m.rows) }

func (m *rowModel) lastT() int64 {
	if m.armed && len(m.loads) > 0 {
		return m.loads[len(m.loads)-1].T
	}
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

// TestTableMatchesRowModel drives random interleavings of appends, lazy
// loads (successful and failing) and every accessor against rowModel. Odd
// trials draw grid-ordered batches, so the order flag is seen holding,
// broken by an extending append, and reset by a lazy load.
func TestTableMatchesRowModel(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	boom := errors.New("segment unreadable")
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
			switch rng.Intn(14) {
			case 0, 1, 2:
				batch := draw(m.lastT(), m.numRows() > 0 && rng.Intn(3) == 0)
				err := p.AppendRows(batch)
				m.touch()
				if m.loadErr != nil {
					if !errors.Is(err, m.loadErr) {
						t.Fatalf("trial %d op %d: AppendRows after failed load = %v", trial, op, err)
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				m.rows = append(m.rows, batch...)
			case 3:
				loads := draw(0, false)
				*m = rowModel{armed: true, loadN: len(loads), loads: loads}
				if rng.Intn(3) == 0 {
					m.loads, m.failing = nil, boom
				}
				fail := m.failing
				p.SetLoader(m.loadN, func() ([]view.Row, error) { return loads, fail })
			case 4:
				at := lo + 1
				m.touch()
				want := m.inRange(at, at)
				got := p.RowsAt(at)
				if !sameRows(got, want) || (len(want) == 0) != (got == nil) {
					t.Fatalf("trial %d op %d: RowsAt(%d) = %v, want %v", trial, op, at, got, want)
				}
			case 5:
				m.touch()
				got, err := p.RowsRange(lo, hi)
				if m.loadErr != nil {
					if got != nil || !errors.Is(err, m.loadErr) {
						t.Fatalf("trial %d op %d: RowsRange on failed load = %v, %v", trial, op, got, err)
					}
				} else if want := m.inRange(lo, hi); err != nil || got == nil || !sameRows(got, want) {
					t.Fatalf("trial %d op %d: RowsRange(%d,%d) = %v, %v; want %v", trial, op, lo, hi, got, err, want)
				}
			case 6:
				m.touch()
				if got := p.SnapshotRows(); !sameRows(got, m.rows) {
					t.Fatalf("trial %d op %d: SnapshotRows = %v, want %v", trial, op, got, m.rows)
				}
			case 7:
				m.touch()
				got, want := p.Times(), modelGroups(m.rows)
				if len(got) != len(want) || p.NumTimes() != len(want) {
					t.Fatalf("trial %d op %d: Times = %v, want %d groups", trial, op, got, len(want))
				}
				for i, g := range want {
					if got[i] != g.T {
						t.Fatalf("trial %d op %d: Times[%d] = %d, want %d", trial, op, i, got[i], g.T)
					}
				}
			case 8:
				m.touch()
				want := m.inRange(lo, hi)
				if g, r := p.RangeSize(lo, hi); g != len(modelGroups(want)) || r != len(want) {
					t.Fatalf("trial %d op %d: RangeSize(%d,%d) = %d, %d; want %d, %d",
						trial, op, lo, hi, g, r, len(modelGroups(want)), len(want))
				}
			case 9:
				m.touch()
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
				if !errors.Is(err, m.loadErr) {
					t.Fatalf("trial %d op %d: ForEachGroupCols err = %v, want %v", trial, op, err, m.loadErr)
				}
				if !sameRows(got, m.inRange(lo, hi)) {
					t.Fatalf("trial %d op %d: ForEachGroupCols(%d,%d) = %v", trial, op, lo, hi, got)
				}
			case 10:
				m.touch()
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
				if m.loadErr != nil {
					if called || !errors.Is(err, m.loadErr) {
						t.Fatalf("trial %d op %d: RangeCols on failed load: called=%v err=%v", trial, op, called, err)
					}
				} else if err != nil || !called {
					t.Fatalf("trial %d op %d: RangeCols called=%v err=%v", trial, op, called, err)
				}
			case 11:
				// A checkpoint capture does not trigger the load.
				from := rng.Intn(m.numRows()+3) - 1
				st := p.captureState(from)
				if m.armed || m.loadErr != nil {
					if st.From != m.loadN || st.Total != m.loadN || len(st.Rows) != 0 || !errors.Is(st.Err, m.loadErr) {
						t.Fatalf("trial %d op %d: capture of unloaded table = %+v", trial, op, st)
					}
					break
				}
				from = max(0, min(from, len(m.rows)))
				if st.From != from || st.Total != len(m.rows) || st.Err != nil || !sameRows(st.Rows, m.rows[from:]) {
					t.Fatalf("trial %d op %d: captureState(%d) = %+v", trial, op, from, st)
				}
			case 12:
				// Neither does the row count.
				if got := p.NumRows(); got != m.numRows() {
					t.Fatalf("trial %d op %d: NumRows = %d, want %d", trial, op, got, m.numRows())
				}
			case 13:
				if err := p.loadErr; !errors.Is(err, m.loadErr) {
					t.Fatalf("trial %d op %d: loadErr = %v, want %v", trial, op, err, m.loadErr)
				}
			}
		}
	}
}
