package probdb

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/view"
)

// Tests for grid narrowing: groupRangeProb on an ordered table must return
// exactly what the whole-tuple scan returns, bit for bit, while reading
// fewer rows; and the rows it reads are what explain and
// tspdb_probdb_rows_read_total report.

// gridTuples and gridOmega give gridView the shape of the bench's
// read_window view: 64 ranges of 0.075 per tuple (a 4.8-wide grid) and
// 1,024 tuples per window.
const gridTuples = 1024

var gridOmega = view.Omega{Delta: 0.075, N: 64}

// gridLo and gridHi are the window value range used with gridView: about
// two in five of its tuples lie wholly below it, and most others straddle
// one of its ends.
const gridLo, gridHi = 16.0, 21.0

// gridView builds gridTuples tuples through view.Builder around a slowly
// oscillating expected value (between 9 and 21) with varying sigma.
func gridView(tb testing.TB) *storage.ProbTable {
	tb.Helper()
	b, err := view.NewBuilder(gridOmega)
	if err != nil {
		tb.Fatal(err)
	}
	tps := make([]view.Tuple, gridTuples)
	for i := range tps {
		x := float64(i + 1)
		tps[i] = view.Tuple{T: int64(i + 1), RHat: 15 + 6*math.Sin(x/40), Sigma: 0.5 + 0.25*math.Cos(x/13)}
	}
	v, err := b.Generate(tps)
	if err != nil {
		tb.Fatal(err)
	}
	return storage.NewProbTable(storage.ViewMeta{Name: "pv", Omega: gridOmega}, v.Rows)
}

// tableCols hands back the whole table's group index and columns.
func tableCols(t *testing.T, p *storage.ProbTable) ([]storage.TimeGroup, storage.Cols) {
	t.Helper()
	var groups []storage.TimeGroup
	var c storage.Cols
	if err := p.RangeCols(math.MinInt64, math.MaxInt64, func(gs []storage.TimeGroup, cs storage.Cols) error {
		groups, c = gs, cs // the columns are append-only: safe to keep in a test
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return groups, c
}

// randomGrid draws one ordered tuple of n rows at timestamp t, in one of
// three shapes: a view.Builder grid, rows between consecutive sorted edges
// (with repeated edges giving zero-width rows and, sometimes, -Inf/+Inf
// outer edges), or independently sorted Lo and Hi columns (so rows may be
// inverted). Signed zeros appear among the edges.
func randomGrid(rng *rand.Rand, t int64, n int) []view.Row {
	rows := make([]view.Row, n)
	switch rng.Intn(3) {
	case 0:
		b, err := view.NewBuilder(view.Omega{Delta: 0.01 + rng.Float64(), N: 2 * (1 + rng.Intn(32))})
		if err != nil {
			panic(err)
		}
		rhat := []float64{0, math.Copysign(0, -1), rng.NormFloat64() * 10}[rng.Intn(3)]
		out, err := b.GenerateOne(view.Tuple{T: t, RHat: rhat, Sigma: 0.1 + rng.Float64()*2})
		if err != nil {
			panic(err)
		}
		return out
	case 1:
		edges := make([]float64, n+1)
		for i := range edges {
			edges[i] = math.Round(rng.NormFloat64()*8) / 4
			if rng.Intn(8) == 0 {
				edges[i] = math.Copysign(0, -1)
			}
		}
		sort.Float64s(edges)
		for i := 1; i < len(edges); i++ {
			if rng.Intn(4) == 0 {
				edges[i] = edges[i-1] // zero-width row
			}
		}
		if rng.Intn(3) == 0 {
			edges[0] = math.Inf(-1)
		}
		if rng.Intn(3) == 0 {
			edges[n] = math.Inf(1)
		}
		for i := range rows {
			rows[i] = view.Row{T: t, Lambda: i, Lo: edges[i], Hi: edges[i+1], Prob: rng.Float64()}
		}
	default:
		los, his := make([]float64, n), make([]float64, n)
		for i := range los {
			los[i], his[i] = math.Round(rng.NormFloat64()*8)/4, math.Round(rng.NormFloat64()*8)/4
		}
		sort.Float64s(los)
		sort.Float64s(his)
		for i := range rows {
			rows[i] = view.Row{T: t, Lambda: i, Lo: los[i], Hi: his[i], Prob: rng.Float64()}
		}
	}
	return rows
}

// queryBounds lists value bounds worth testing against rows: every row
// edge, points just beside the edges and between them, signed zeros and
// the infinities.
func queryBounds(rng *rand.Rand, rows []view.Row) []float64 {
	out := []float64{math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
	for _, r := range rows {
		for _, e := range []float64{r.Lo, r.Hi} {
			out = append(out, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		out = append(out, r.Lo+(r.Hi-r.Lo)*rng.Float64())
	}
	return out
}

// TestGroupRangeProbMatchesWholeScan is the narrowing property: on random
// ordered tuples and every pair of bounds from queryBounds (lo == hi
// included), groupRangeProb equals the whole-tuple rangeProbCols via
// Float64bits, reads no more rows than the tuple holds, and reads all of
// them when the table is not marked ordered, and equals the row oracle
// RangeProb, also on tuples with an infinite outer bound.
func TestGroupRangeProbMatchesWholeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		var rows []view.Row
		for g := 0; g < 4; g++ {
			rows = append(rows, randomGrid(rng, int64(g+1), 1+rng.Intn(12))...)
		}
		p := storage.NewProbTable(storage.ViewMeta{Name: "pv"}, rows)
		groups, c := tableCols(t, p)
		if !c.Ordered {
			t.Fatalf("trial %d: random grids are not ordered", trial)
		}
		whole := c
		whole.Ordered = false
		for _, g := range groups {
			end := g.Off + g.Len
			tuple := rows[g.Off:end]
			bounds := queryBounds(rng, tuple)
			for _, lo := range bounds {
				for _, hi := range bounds {
					if !validRange(lo, hi) {
						continue
					}
					got, read := groupRangeProb(g, c, lo, hi)
					want := rangeProbCols(c.Lo[g.Off:end], c.Hi[g.Off:end], c.Prob[g.Off:end], lo, hi)
					oracle, err := RangeProb(tuple, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(got) != math.Float64bits(oracle) {
						t.Fatalf("trial %d t=%d (%v, %v]: narrowed %v (%#x), whole %v (%#x), oracle %v\nrows %+v",
							trial, g.T, lo, hi, got, math.Float64bits(got), want, math.Float64bits(want), oracle, tuple)
					}
					if read < 0 || read > g.Len {
						t.Fatalf("trial %d t=%d (%v, %v]: read %d of %d rows", trial, g.T, lo, hi, read, g.Len)
					}
					fallback, all := groupRangeProb(g, whole, lo, hi)
					if all != g.Len || math.Float64bits(fallback) != math.Float64bits(want) {
						t.Fatalf("trial %d t=%d: unordered scan read %d of %d rows, got %v want %v", trial, g.T, all, g.Len, fallback, want)
					}
				}
			}
		}
	}
}

// TestRowsReadPinned pins the rows the window kernels read on gridView's
// fixed builder view and range, the count tspdb_probdb_rows_read_total
// adds, and the answers against the row oracle.
func TestRowsReadPinned(t *testing.T) {
	const (
		tLo, tHi = 1, gridTuples
		span     = gridTuples * 64 // rows_scanned
		read     = 23412           // rows_read of one pass over the window: 36%
	)
	p := gridView(t)
	counter := obs.Default.Counter("tspdb_probdb_rows_read_total", "")
	all := FusedStats{Expected: true, Prob: true, Count: true}
	for _, tc := range []struct {
		name    string
		want    FusedStats
		workers int
		read    int
	}{
		{"count", FusedStats{Count: true}, 1, read},
		{"prob", FusedStats{Prob: true}, 1, read},
		{"all", all, 1, read}, // count shares prob's per-tuple pass
		{"expected", FusedStats{Expected: true}, 1, 0},
		{"all/pooled", all, 4, read},
	} {
		if tc.workers > 1 {
			withParCutoff(t, 0)
		}
		before := counter.Value()
		res, plan, err := FusedSeries(p, tLo, tHi, gridLo, gridHi, tc.want, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if plan.RowsRead != tc.read || counter.Value()-before != int64(tc.read) {
			t.Errorf("%s: RowsRead %d, counter +%d; want %d", tc.name, plan.RowsRead, counter.Value()-before, tc.read)
		}
		if tc.workers > 1 && plan.Workers <= 1 {
			t.Errorf("%s: plan %+v did not use the pool", tc.name, plan)
		}
		if tc.want.Count {
			want, err := rowExpectedCount(p, tLo, tHi, gridLo, gridHi)
			if err != nil || math.Float64bits(res.Count) != math.Float64bits(want) {
				t.Errorf("%s: count %v, oracle %v (%v)", tc.name, res.Count, want, err)
			}
		}
	}
	if groups, rows := p.RangeSize(tLo, tHi); groups != gridTuples || rows != span {
		t.Fatalf("window spans %d groups, %d rows; want %d, %d", groups, rows, gridTuples, span)
	}

	// The scanProbs reducers count the same rows, ANY and ALLIN only up to
	// the tuple that decides them.
	before := counter.Value()
	if _, plan, err := AnyInRangePlan(p, tLo, tHi, gridLo, gridHi); err != nil || plan.RowsRead != read || counter.Value()-before != read {
		t.Errorf("AnyInRangePlan: %+v, %v, counter +%d; want %d rows read", plan, err, counter.Value()-before, read)
	}
	// ALLIN stops at the first tuple wholly outside the range: t=1, whose
	// grid lies below 20, before reading a row; over gridLo..gridHi, the
	// first tuple wholly below gridLo, after the rows of those before it.
	if _, plan, err := AllInRangePlan(p, tLo, tHi, 20, 21); err != nil || plan.RowsRead != 0 {
		t.Errorf("AllInRangePlan over a range above t=1's grid: %+v, %v; want 0 rows read", plan, err)
	}
	if _, plan, err := AllInRangePlan(p, tLo, tHi, gridLo, gridHi); err != nil || plan.RowsRead != 5567 {
		t.Errorf("AllInRangePlan: %+v, %v; want 5567 rows read", plan, err)
	}

	// One tuple out of order makes the whole table fall back to whole-tuple
	// scans: every row of the window is read, and the answer is unchanged.
	rows := p.SnapshotRows()
	rows[0].Lo, rows[1].Lo = rows[1].Lo, rows[0].Lo
	q := storage.NewProbTable(storage.ViewMeta{Name: "q"}, rows)
	got, plan, err := ExpectedCountPar(q, tLo, tHi, gridLo, gridHi, 1)
	want, werr := rowExpectedCount(q, tLo, tHi, gridLo, gridHi)
	if err != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) || plan.RowsRead != span {
		t.Errorf("unordered table: count %v (%v) vs oracle %v (%v), RowsRead %d want %d", got, err, want, werr, plan.RowsRead, span)
	}
}

// BenchmarkGridWindow runs the window kernels at read_window's shape: a
// 64-range builder view, 1,024 tuples per window and a value range that
// leaves about two in five tuples wholly outside it. count is SQL
// COUNT(lo, hi); series the three statistics of /series. Sequential, so
// the number is the kernel's, not the pool's; rows/s counts the window's
// rows, read or skipped.
func BenchmarkGridWindow(b *testing.B) {
	p := gridView(b)
	all := FusedStats{Expected: true, Prob: true, Count: true}
	for _, bc := range []struct {
		name string
		want FusedStats
	}{{"count", FusedStats{Count: true}}, {"series", all}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := FusedSeries(p, 1, gridTuples, gridLo, gridHi, bc.want, 1); err != nil {
					b.Fatal(err)
				}
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(gridTuples*gridOmega.N)*float64(b.N)/s, "rows/s")
			}
		})
	}
}
