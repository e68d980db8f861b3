package storage

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/timeseries"
	"repro/internal/view"
)

func newTestSeries(t *testing.T, n int) *timeseries.Series {
	t.Helper()
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i) * 1.5
	}
	return timeseries.FromValues(vs)
}

func TestCreateAndFetchRawTable(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 10)
	tab, err := db.CreateRawTable("raw_values", "t", "r", s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.TimeCol != "t" || tab.ValueCol != "r" {
		t.Errorf("columns = %q,%q", tab.TimeCol, tab.ValueCol)
	}
	got, err := db.RawTable("raw_values")
	if err != nil {
		t.Fatal(err)
	}
	if got.Series.Len() != 10 {
		t.Errorf("series length %d", got.Series.Len())
	}
	if _, err := db.RawTable("missing"); !errors.Is(err, ErrNotFound) {
		t.Error("missing table found")
	}
}

func TestCreateRawTableDefaultsAndValidation(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	tab, err := db.CreateRawTable("defaults", "", "", s)
	if err != nil {
		t.Fatal(err)
	}
	if tab.TimeCol != "t" || tab.ValueCol != "r" {
		t.Errorf("default columns = %q,%q", tab.TimeCol, tab.ValueCol)
	}
	if _, err := db.CreateRawTable("", "t", "r", s); !errors.Is(err, ErrBadName) {
		t.Error("empty name accepted")
	}
	if _, err := db.CreateRawTable("bad name", "t", "r", s); !errors.Is(err, ErrBadName) {
		t.Error("name with space accepted")
	}
	if _, err := db.CreateRawTable("nil_series", "t", "r", nil); !errors.Is(err, ErrBadSchema) {
		t.Error("nil series accepted")
	}
	if _, err := db.CreateRawTable("defaults", "t", "r", s); !errors.Is(err, ErrExists) {
		t.Error("duplicate name accepted")
	}
	if _, err := db.CreateRawTable("badcol", "t!", "r", s); !errors.Is(err, ErrBadName) {
		t.Error("bad column name accepted")
	}
}

// TestAppendRaw appends raw points alone: a step with no rows.
func TestAppendRaw(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	if _, err := db.CreateRawTable("stream", "t", "r", s); err != nil {
		t.Fatal(err)
	}
	p := &ProbTable{Name: "pv", Source: "stream"}
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	if err := db.CommitStep("stream", timeseries.Point{T: 100, V: 9}, p, nil); err != nil {
		t.Fatal(err)
	}
	tab, _ := db.RawTable("stream")
	if tab.Series.Len() != 4 || p.NumRows() != 0 {
		t.Errorf("after a raw-only step: length %d, view rows %d", tab.Series.Len(), p.NumRows())
	}
	if err := db.CommitStep("missing", timeseries.Point{T: 1, V: 1}, p, nil); !errors.Is(err, ErrNotFound) {
		t.Error("append to missing table accepted")
	}
	// Appending a stale timestamp must propagate the series error.
	if err := db.CommitStep("stream", timeseries.Point{T: 50, V: 1}, p, nil); !errors.Is(err, timeseries.ErrUnsorted) {
		t.Errorf("stale timestamp: %v, want ErrUnsorted", err)
	}
}

var probTableRows = []view.Row{
	{T: 1, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.4},
	{T: 1, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
	{T: 2, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.3},
	{T: 2, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.6},
}

func makeProbTable(name string) *ProbTable {
	return NewProbTable(ViewMeta{
		Name:       name,
		Source:     "raw_values",
		MetricName: "ARMA-GARCH",
		Omega:      view.Omega{Delta: 1, N: 2},
	}, probTableRows)
}

func TestStoreAndFetchView(t *testing.T) {
	db := NewDB()
	if err := db.StoreView(makeProbTable("pv")); err != nil {
		t.Fatal(err)
	}
	got, err := db.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got.MetricName != "ARMA-GARCH" || got.NumRows() != 4 {
		t.Errorf("view = %+v", got.Meta())
	}
	if _, err := db.View("missing"); !errors.Is(err, ErrNotFound) {
		t.Error("missing view found")
	}
	// Replacing is allowed.
	if err := db.StoreView(makeProbTable("pv")); err != nil {
		t.Errorf("replace failed: %v", err)
	}
	if err := db.StoreView(nil); !errors.Is(err, ErrBadSchema) {
		t.Error("nil view accepted")
	}
}

func TestViewRawNameCollision(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	if _, err := db.CreateRawTable("shared", "t", "r", s); err != nil {
		t.Fatal(err)
	}
	if err := db.StoreView(makeProbTable("shared")); !errors.Is(err, ErrExists) {
		t.Error("view name colliding with raw table accepted")
	}
	if err := db.StoreView(makeProbTable("pv")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRawTable("pv", "t", "r", s); !errors.Is(err, ErrExists) {
		t.Error("raw name colliding with view accepted")
	}
}

func TestProbTableRowsAtAndTimes(t *testing.T) {
	p := makeProbTable("pv")
	rows := p.RowsAt(2)
	if len(rows) != 2 || rows[0].Prob != 0.3 {
		t.Errorf("RowsAt(2) = %+v", rows)
	}
	if p.RowsAt(99) != nil {
		t.Error("RowsAt(absent) should be nil")
	}
	times := p.Times()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("Times = %v", times)
	}
}

// TestResidentBytesPerRow pins what a resident row costs: four 8-byte
// columns plus a 24-byte group entry per tuple, with append's growth slack
// on top. A table that also kept its []view.Row would be at 72 B/row before
// any slack.
func TestResidentBytesPerRow(t *testing.T) {
	const tuples, n = 12500, 8 // 100k rows
	db := NewDB()
	p := &ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: n}}
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	batch := make([]view.Row, n)
	for i := 1; i <= tuples; i++ {
		for l := range batch {
			batch[l] = view.Row{T: int64(i), Lambda: l - n/2, Lo: float64(l), Hi: float64(l) + 1, Prob: 1.0 / n}
		}
		if err := p.AppendRows(batch); err != nil {
			t.Fatal(err)
		}
	}
	rows, bytes := db.ViewResident()
	if rows != tuples*n {
		t.Errorf("ViewResident rows = %d, want %d", rows, tuples*n)
	}
	perRow := float64(bytes) / float64(rows)
	if perRow < 32+24.0/n || perRow > 48 {
		t.Errorf("resident bytes per row = %.1f, want within [35, 48]", perRow)
	}
}

func TestDrop(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	_, _ = db.CreateRawTable("raw1", "t", "r", s)
	_ = db.StoreView(makeProbTable("pv1"))
	if err := db.Drop("raw1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("pv1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Drop("gone"); !errors.Is(err, ErrNotFound) {
		t.Error("dropping missing table accepted")
	}
	if len(db.List()) != 0 {
		t.Error("catalog not empty after drops")
	}
}

func TestList(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 5)
	_, _ = db.CreateRawTable("zebra", "t", "r", s)
	_, _ = db.CreateRawTable("alpha", "t", "r", s)
	_ = db.StoreView(makeProbTable("middle"))
	infos := db.List()
	if len(infos) != 3 {
		t.Fatalf("List = %d entries", len(infos))
	}
	if infos[0].Name != "alpha" || infos[1].Name != "middle" || infos[2].Name != "zebra" {
		t.Errorf("order: %v", infos)
	}
	if infos[0].Kind != "raw" || infos[1].Kind != "view" {
		t.Error("kinds wrong")
	}
	if infos[0].Rows != 5 || infos[1].Rows != 4 {
		t.Error("row counts wrong")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDB()
	s := newTestSeries(t, 3)
	_, _ = db.CreateRawTable("base", "t", "r", s)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, _ = db.RawTable("base")
				_ = db.List()
				_ = db.StoreView(makeProbTable("pv"))
				_, _ = db.View("pv")
			}
		}(i)
	}
	wg.Wait()
	if _, err := db.View("pv"); err != nil {
		t.Error("view lost after concurrent writes")
	}
}
