package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=2, n=2 FROM raw WHERE t >= 1 AND t <= 3")
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
	// Spot-check operator tokens.
	var ops []TokenKind
	for _, tok := range toks {
		if tok.Kind == TokGE || tok.Kind == TokLE || tok.Kind == TokEquals {
			ops = append(ops, tok.Kind)
		}
	}
	if len(ops) != 4 { // delta=, n=, >=, <=
		t.Errorf("operators = %v", ops)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("x = -2.5e-3")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != TokNumber || toks[2].Text != "-2.5e-3" {
		t.Errorf("number token = %+v", toks[2])
	}
	if _, err := Lex("x = -."); err == nil {
		t.Error("malformed number accepted")
	}
}

func TestLexUnknownChar(t *testing.T) {
	if _, err := Lex("select @"); err == nil {
		t.Error("unknown character accepted")
	}
	var se *SyntaxError
	_, err := Lex("select @")
	if !errors.As(err, &se) {
		t.Error("error is not a SyntaxError")
	}
}

func TestLexSemicolonTerminates(t *testing.T) {
	toks, err := Lex("show tables; garbage @#$")
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].Text != ";" {
		t.Error("semicolon should terminate lexing")
	}
}

func TestParsePaperQuery(t *testing.T) {
	// The exact query of Fig. 7.
	stmt, err := Parse("CREATE VIEW prob_view AS DENSITY r OVER t OMEGA delta=2, n=2 FROM raw_values WHERE t >= 1 AND t <= 3")
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := stmt.(*CreateViewStmt)
	if !ok {
		t.Fatalf("parsed %T", stmt)
	}
	if cv.ViewName != "prob_view" || cv.ValueCol != "r" || cv.TimeCol != "t" {
		t.Errorf("names: %+v", cv)
	}
	if cv.Delta != 2 || cv.N != 2 {
		t.Errorf("omega: delta=%v n=%d", cv.Delta, cv.N)
	}
	if cv.From != "raw_values" {
		t.Errorf("from: %q", cv.From)
	}
	if cv.Where == nil || cv.Where.Lo != 1 || cv.Where.Hi != 3 {
		t.Errorf("where: %+v", cv.Where)
	}
	if cv.Metric != nil || cv.Window != 0 || cv.Cache != nil {
		t.Error("optional clauses should be unset")
	}
}

func TestParseExtendedClauses(t *testing.T) {
	stmt, err := Parse(`CREATE VIEW v AS DENSITY r OVER t
		OMEGA delta=0.05, n=300
		METRIC UT(u=2.5, p=2)
		WINDOW 120
		CACHE DISTANCE 0.01
		FROM campus WHERE t >= 100`)
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateViewStmt)
	if cv.Metric == nil || cv.Metric.Name != "UT" {
		t.Fatalf("metric: %+v", cv.Metric)
	}
	if cv.Metric.Params["u"] != 2.5 || cv.Metric.Params["p"] != 2 {
		t.Errorf("metric params: %v", cv.Metric.Params)
	}
	if cv.Window != 120 {
		t.Errorf("window: %d", cv.Window)
	}
	if cv.Cache == nil || cv.Cache.Distance != 0.01 {
		t.Errorf("cache: %+v", cv.Cache)
	}
	if cv.Where.Lo != 100 || cv.Where.Hi != math.MaxInt64 {
		t.Errorf("where: %+v", cv.Where)
	}
}

func TestParseCacheMemory(t *testing.T) {
	stmt, err := Parse("CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 CACHE MEMORY 50 FROM raw")
	if err != nil {
		t.Fatal(err)
	}
	cv := stmt.(*CreateViewStmt)
	if cv.Cache == nil || cv.Cache.Memory != 50 {
		t.Errorf("cache: %+v", cv.Cache)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"CREATE TABLE x",
		"CREATE VIEW v AS DENSITY r OMEGA delta=1, n=2 FROM raw",                                // missing OVER
		"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1 FROM raw",                              // missing n
		"CREATE VIEW v AS DENSITY r OVER t OMEGA n=2, delta=1",                                  // missing FROM
		"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2.5 FROM raw",                       // fractional n
		"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw WHERE x >= 1",            // wrong column
		"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw WHERE t >= 5 AND t <= 1", // empty range
		"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 CACHE FOO 1 FROM raw",
		"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW -3 FROM raw",
		"SELECT FROM x",
		"SELECT * FROM x LIMIT 0",
		"SHOW VIEWS",
		"DROP x",
		"SELECT * FROM x trailing garbage",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %q", q)
		}
	}
}

func TestParseSelect(t *testing.T) {
	stmt, err := Parse("SELECT * FROM pv WHERE t >= 10 AND t <= 20 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if sel.Table != "pv" || sel.Limit != 5 {
		t.Errorf("select: %+v", sel)
	}
	if sel.Where.Lo != 10 || sel.Where.Hi != 20 {
		t.Errorf("where: %+v", sel.Where)
	}
}

func TestParseWhereEquality(t *testing.T) {
	stmt, err := Parse("SELECT * FROM pv WHERE t = 7")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if sel.Where.Lo != 7 || sel.Where.Hi != 7 {
		t.Errorf("where: %+v", sel.Where)
	}
}

func TestParseStrictInequalities(t *testing.T) {
	stmt, err := Parse("SELECT * FROM pv WHERE t > 5 AND t < 10")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if sel.Where.Lo != 6 || sel.Where.Hi != 9 {
		t.Errorf("where: %+v", sel.Where)
	}
}

// TestParseOneStatement pins that a query is one statement: one trailing ';'
// is allowed, and anything else after it is a SyntaxError at its position,
// never a second statement dropped unread.
func TestParseOneStatement(t *testing.T) {
	cases := []struct {
		q       string
		wantPos int // -1: accepted
	}{
		{"SHOW TABLES", -1},
		{"SHOW TABLES;", -1},
		{"SHOW TABLES ; \n\t", -1},
		{"SELECT COUNT(1,2) FROM pv; DROP TABLE pv", 27},
		{"SELECT COUNT(1,2) FROM pv;DROP TABLE pv", 26},
		{"SHOW TABLES;;", 12},
		{"SHOW TABLES; garbage @#$", 13},
		{"DROP TABLE pv;\nSHOW TABLES;", 15},
	}
	for _, c := range cases {
		_, err := Parse(c.q)
		if c.wantPos < 0 {
			if err != nil {
				t.Errorf("%q: %v", c.q, err)
			}
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) || se.Pos != c.wantPos {
			t.Errorf("%q: err = %v, want a SyntaxError at %d", c.q, err, c.wantPos)
		}
	}
}

// TestParseWhereBoundsSaturate pins the conversion of WHERE bounds to int64
// times: a bound past either end of the int64 axis saturates, and one that
// no int64 time can meet is the empty-range SyntaxError.
func TestParseWhereBoundsSaturate(t *testing.T) {
	const big = 1 << 60 // exact in float64, with neighbours that are not
	cases := []struct {
		where  string
		lo, hi int64
		empty  bool
	}{
		{where: "t >= 1e30", empty: true},
		{where: "t <= 1e30", lo: math.MinInt64, hi: math.MaxInt64},
		{where: "t >= -1e30", lo: math.MinInt64, hi: math.MaxInt64},
		{where: "t <= -1e30", empty: true},
		{where: "t > 9223372036854775807", empty: true},
		{where: "t < 9223372036854775807", lo: math.MinInt64, hi: math.MaxInt64},
		{where: "t < -9223372036854775808", empty: true},
		{where: "t <= -9223372036854775808", lo: math.MinInt64, hi: math.MinInt64},
		{where: "t > -9223372036854775808", lo: math.MinInt64 + 1, hi: math.MaxInt64},
		{where: "t = 5.5", empty: true},
		{where: "t = 1e30", empty: true},
		{where: "t = 7", lo: 7, hi: 7},
		{where: "t > 4.5 AND t < 7.5", lo: 5, hi: 7},
		{where: "t > 1152921504606846976", lo: big + 1, hi: math.MaxInt64},
		{where: "t < 1152921504606846976", lo: math.MinInt64, hi: big - 1},
		// A conjunction intersects its bounds.
		{where: "t >= 100 AND t >= 50", lo: 100, hi: math.MaxInt64},
		{where: "t >= 50 AND t >= 100", lo: 100, hi: math.MaxInt64},
		{where: "t = 7 AND t <= 100", lo: 7, hi: 7},
		{where: "t <= 10 AND t <= 20", lo: math.MinInt64, hi: 10},
		{where: "t >= 1e30 AND t >= 5", empty: true},
		{where: "t = 7 AND t = 8", empty: true},
	}
	for _, c := range cases {
		for _, q := range []string{
			"SELECT * FROM pv WHERE " + c.where,
			"CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw WHERE " + c.where,
		} {
			stmt, err := Parse(q)
			if c.empty {
				var se *SyntaxError
				if !errors.As(err, &se) || !strings.Contains(se.Msg, "empty time range") {
					t.Errorf("%q: err = %v, want the empty-range SyntaxError", q, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%q: %v", q, err)
				continue
			}
			var w *TimeRange
			switch s := stmt.(type) {
			case *SelectStmt:
				w = s.Where
			case *CreateViewStmt:
				w = s.Where
			}
			if w.Lo != c.lo || w.Hi != c.hi {
				t.Errorf("%q: range [%d, %d], want [%d, %d]", q, w.Lo, w.Hi, c.lo, c.hi)
			}
		}
	}
}

func newTestDB(t *testing.T, n int) *storage.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, n)
	for i := 1; i < n; i++ {
		vs[i] = 0.9*vs[i-1] + rng.NormFloat64()
	}
	db := storage.NewDB()
	if _, err := db.CreateRawTable("raw_values", "t", "r", timeseries.FromValues(vs)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecCreateViewEndToEnd(t *testing.T) {
	db := newTestDB(t, 400)
	res, err := ExecWith(db, `CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.5, n=8 WINDOW 90
		FROM raw_values WHERE t >= 100 AND t <= 150`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "view" || res.View == nil {
		t.Fatalf("result: %+v", res)
	}
	if res.View.MetricName != "ARMA-GARCH" {
		t.Errorf("default metric = %q", res.View.MetricName)
	}
	// 51 timestamps x 8 ranges.
	if res.View.NumRows() != 51*8 {
		t.Errorf("rows = %d, want %d", res.View.NumRows(), 51*8)
	}
	// The view must be fetchable from the catalog.
	if _, err := db.View("pv"); err != nil {
		t.Error("view not stored")
	}
	// Per-tuple probability mass must be <= 1 and > 0.
	for _, tm := range res.View.Times() {
		total := 0.0
		for _, r := range res.View.RowsAt(tm) {
			total += r.Prob
		}
		if total <= 0 || total > 1+1e-9 {
			t.Errorf("t=%d: total mass %v", tm, total)
		}
	}
}

func TestExecCreateViewWithCache(t *testing.T) {
	db := newTestDB(t, 400)
	res, err := ExecWith(db, `CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.5, n=8 WINDOW 90 CACHE DISTANCE 0.01
		FROM raw_values WHERE t >= 100 AND t <= 200`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats == nil {
		t.Fatal("no cache stats")
	}
	if res.CacheStats.Hits == 0 {
		t.Error("cache never hit")
	}
}

func TestExecCreateViewMetrics(t *testing.T) {
	db := newTestDB(t, 300)
	for _, metric := range []string{
		"METRIC UT(u=2)",
		"METRIC VT",
		"METRIC ARMA_GARCH(p=1, q=0)",
		"METRIC CGARCH(svmax=5)",
	} {
		q := "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 WINDOW 90 " +
			metric + " FROM raw_values WHERE t >= 150 AND t <= 160"
		if _, err := ExecWith(db, q, Options{}); err != nil {
			t.Errorf("%s: %v", metric, err)
		}
	}
}

// TestExecCreateViewStatsWorkers pins the build's explain line: Workers is
// the inference pool size, one at Parallelism 1 and min(GOMAXPROCS, tuples)
// at 0.
func TestExecCreateViewStatsWorkers(t *testing.T) {
	db := newTestDB(t, 300)
	for _, tuples := range []int{1, 3, 50} {
		q := fmt.Sprintf("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 WINDOW 90 "+
			"METRIC VT FROM raw_values WHERE t >= 150 AND t <= %d", 149+tuples)
		for _, c := range []struct{ parallelism, want int }{
			{1, 1},
			{0, min(runtime.GOMAXPROCS(0), tuples)},
		} {
			res, err := ExecWith(db, q, Options{Parallelism: c.parallelism})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Groups != tuples || res.Stats.Workers != c.want {
				t.Errorf("tuples=%d parallelism=%d: stats %+v, want %d workers",
					tuples, c.parallelism, res.Stats, c.want)
			}
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := newTestDB(t, 300)
	cases := []string{
		"CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 FROM missing",
		"CREATE VIEW pv AS DENSITY wrong OVER t OMEGA delta=1, n=4 FROM raw_values",
		"CREATE VIEW pv AS DENSITY r OVER wrong OMEGA delta=1, n=4 FROM raw_values",
		"CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 METRIC NOSUCH FROM raw_values",
		"CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 METRIC UT FROM raw_values",       // UT needs u
		"CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 METRIC CGARCH FROM raw_values",   // CGARCH needs svmax
		"CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 FROM raw_values WHERE t >= 9999", // empty tuple set
		"SELECT * FROM missing",
		"DROP TABLE missing",
	}
	for _, q := range cases {
		if _, err := ExecWith(db, q, Options{}); err == nil {
			t.Errorf("accepted: %q", q)
		}
	}
}

func TestExecSelectFromView(t *testing.T) {
	db := newTestDB(t, 300)
	if _, err := ExecWith(db, "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW 90 FROM raw_values WHERE t >= 100 AND t <= 110", Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := ExecWith(db, "SELECT * FROM pv WHERE t = 105", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "rows" || len(res.Rows) != 2 {
		t.Fatalf("select result: %+v", res)
	}
	if strings.Join(res.Columns, ",") != "t,lambda,lo,hi,prob" {
		t.Errorf("columns: %v", res.Columns)
	}
	// Limit applies.
	res, err = ExecWith(db, "SELECT * FROM pv LIMIT 3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("limit ignored: %d rows", len(res.Rows))
	}
}

func TestExecSelectFromRawTable(t *testing.T) {
	db := newTestDB(t, 50)
	res, err := ExecWith(db, "SELECT * FROM raw_values WHERE t >= 10 AND t <= 12", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("%d rows", len(res.Rows))
	}
	if res.Columns[0] != "t" || res.Columns[1] != "r" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestExecShowTablesAndDrop(t *testing.T) {
	db := newTestDB(t, 50)
	res, err := ExecWith(db, "SHOW TABLES", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "raw_values" {
		t.Errorf("show tables: %v", res.Rows)
	}
	if _, err := ExecWith(db, "DROP TABLE raw_values", Options{}); err != nil {
		t.Fatal(err)
	}
	res, _ = ExecWith(db, "SHOW TABLES", Options{})
	if len(res.Rows) != 0 {
		t.Error("table not dropped")
	}
}

func TestParseAggregates(t *testing.T) {
	stmt, err := Parse("SELECT EXPECTED FROM pv WHERE t >= 1 AND t <= 9")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if sel.Agg == nil || sel.Agg.Name != "EXPECTED" || sel.Agg.HasRange {
		t.Errorf("agg: %+v", sel.Agg)
	}

	stmt, err = Parse("SELECT PROB(1.5, 2.5) FROM pv")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*SelectStmt)
	if sel.Agg == nil || sel.Agg.Name != "PROB" || sel.Agg.Lo != 1.5 || sel.Agg.Hi != 2.5 {
		t.Errorf("agg: %+v", sel.Agg)
	}

	for _, q := range []string{
		"SELECT NOSUCH FROM pv",
		"SELECT PROB FROM pv",       // missing range
		"SELECT PROB(2, 1) FROM pv", // empty range
		"SELECT ANY(1) FROM pv",     // missing second bound
		"SELECT COUNT(1, 2 FROM pv", // unclosed paren
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %q", q)
		}
	}
}

func TestExecAggregates(t *testing.T) {
	db := newTestDB(t, 300)
	if _, err := ExecWith(db, "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=8 WINDOW 90 FROM raw_values WHERE t >= 100 AND t <= 120", Options{}); err != nil {
		t.Fatal(err)
	}

	res, err := ExecWith(db, "SELECT EXPECTED FROM pv WHERE t >= 100 AND t <= 110", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 || res.Columns[1] != "expected" {
		t.Errorf("expected series: %d rows, cols %v", len(res.Rows), res.Columns)
	}

	res, err = ExecWith(db, "SELECT PROB(-100, 100) FROM pv LIMIT 5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("prob series rows = %d", len(res.Rows))
	}

	for _, q := range []string{
		"SELECT ANY(-100, 100) FROM pv",
		"SELECT ALLIN(-100, 100) FROM pv",
		"SELECT COUNT(-100, 100) FROM pv",
	} {
		res, err := ExecWith(db, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Errorf("%s: result %v", q, res.Rows)
		}
	}

	// ANY over a huge range must be ~1; ALLIN over a tiny far range ~0.
	res, _ = ExecWith(db, "SELECT ANY(-10000, 10000) FROM pv", Options{})
	if res.Rows[0][0] != "1" {
		t.Errorf("ANY(everything) = %v", res.Rows[0][0])
	}
	res, _ = ExecWith(db, "SELECT ALLIN(9000, 9001) FROM pv", Options{})
	if res.Rows[0][0] != "0" {
		t.Errorf("ALLIN(far range) = %v", res.Rows[0][0])
	}

	// Aggregates require a view.
	if _, err := ExecWith(db, "SELECT EXPECTED FROM raw_values", Options{}); err == nil {
		t.Error("aggregate over raw table accepted")
	}
}

func TestBuildMetricDefaults(t *testing.T) {
	m, err := BuildMetric(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "ARMA-GARCH" {
		t.Errorf("default metric = %q", m.Name())
	}
	kg, err := BuildMetric(&MetricSpec{Name: "KALMAN_GARCH", Params: map[string]float64{"kappa": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if kg.Name() != "Kalman-GARCH" {
		t.Errorf("metric = %q", kg.Name())
	}
}

func TestExecWindowBelowMinimumIsRaised(t *testing.T) {
	db := newTestDB(t, 300)
	// WINDOW 5 is below ARMA-GARCH's minimum; the executor raises it rather
	// than failing, so the query still runs.
	res, err := ExecWith(db, "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW 5 FROM raw_values WHERE t >= 150 AND t <= 155", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.View.NumRows() == 0 {
		t.Error("no rows generated")
	}
}

// TestExecAggregateRowsRead pins the rows_read each aggregate reports on a
// hand-built ordered view: three tuples whose grids are (0,1], (1,2],
// (2,3], (3,4] with mass 1/4 each. (1.5, 2.5] touches two rows of each.
func TestExecAggregateRowsRead(t *testing.T) {
	var rows []view.Row
	for ts := int64(1); ts <= 3; ts++ {
		for i := 0; i < 4; i++ {
			rows = append(rows, view.Row{T: ts, Lambda: i - 2, Lo: float64(i), Hi: float64(i + 1), Prob: 0.25})
		}
	}
	db := storage.NewDB()
	if err := db.StoreView(storage.NewProbTable(storage.ViewMeta{Name: "pv", Source: "raw"}, rows)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		read int
	}{
		{"SELECT * FROM pv", 12},
		{"SELECT EXPECTED FROM pv", 0},
		{"SELECT PROB(1.5, 2.5) FROM pv", 6},
		{"SELECT COUNT(1.5, 2.5) FROM pv", 6},
		{"SELECT ANY(1.5, 2.5) FROM pv", 6},
		{"SELECT ALLIN(1.5, 2.5) FROM pv", 6},
		{"SELECT ALLIN(10, 11) FROM pv", 0},    // t=1 decides it, its grid wholly below
		{"SELECT ANY(-1, 5) FROM pv", 4},       // t=1 is certain: one tuple read
		{"SELECT COUNT(2, 2) FROM pv", 3},      // lo == hi on an edge: reads the row above it, which adds 0
		{"SELECT COUNT(-1, 0.5) FROM pv", 3},   // only each tuple's first row
		{"SELECT COUNT(4, 9) FROM pv", 0},      // every grid ends at 4
		{"SELECT COUNT(-9, 9) FROM pv", 12},    // every row
		{"SELECT COUNT(2.5, 2.75) FROM pv", 3}, // inside one row
	} {
		res, err := ExecWith(db, c.q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if res.Stats.Rows != 12 || res.Stats.RowsRead != c.read {
			t.Errorf("%s: scanned %d rows, read %d; want 12, %d", c.q, res.Stats.Rows, res.Stats.RowsRead, c.read)
		}
	}
}
