package storage

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/timeseries"
	"repro/internal/view"
)

// recLog is a CommitLog that records every call as a compact op string,
// so tests can assert the exact write-ahead sequence.
type recLog struct {
	ops  []string
	fail error // when set, every call refuses with this error
}

func (l *recLog) op(s string, args ...any) error {
	if l.fail != nil {
		return l.fail
	}
	l.ops = append(l.ops, fmt.Sprintf(s, args...))
	return nil
}

func (l *recLog) CreateRaw(name, timeCol, valueCol string, pts []timeseries.Point) error {
	return l.op("create-raw %s %s %s n=%d", name, timeCol, valueCol, len(pts))
}
func (l *recLog) StoreView(meta ViewMeta, rows []view.Row) error {
	return l.op("store-view %s src=%s n=%d", meta.Name, meta.Source, len(rows))
}
func (l *recLog) Steps(source string, pts []timeseries.Point, view string, rows []view.Row) error {
	ts := make([]int64, len(pts))
	for i := range pts {
		ts[i] = pts[i].T
	}
	return l.op("steps %s t=%v %s n=%d", source, ts, view, len(rows))
}
func (l *recLog) Drop(name string) error { return l.op("drop %s", name) }

func mustSeries(t *testing.T, pts ...timeseries.Point) *timeseries.Series {
	t.Helper()
	s, err := timeseries.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCommitLogReceivesMutations pins the write-ahead order: every catalog
// mutation shows up in the log exactly once, before it is applied, and a
// rejected mutation never reaches the log.
func TestCommitLogReceivesMutations(t *testing.T) {
	db := NewDB()
	log := &recLog{}
	db.SetCommitLog(log)

	if _, err := db.CreateRawTable("raw", "", "", mustSeries(t, timeseries.Point{T: 1, V: 2})); err != nil {
		t.Fatal(err)
	}
	p := &ProbTable{Name: "pv", Source: "raw"}
	p.AppendRows([]view.Row{{T: 1, Lambda: 0}})
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	// A raw-only step: the point alone, no rows.
	if err := db.CommitStep("raw", timeseries.Point{T: 2, V: 3}, p, nil); err != nil {
		t.Fatal(err)
	}
	// An out-of-order point is rejected before logging.
	if err := db.CommitStep("raw", timeseries.Point{T: 2, V: 9}, p, nil); !errors.Is(err, timeseries.ErrUnsorted) {
		t.Fatalf("stale step = %v, want ErrUnsorted", err)
	}
	// The stored table's handle refuses unlogged appends.
	if err := p.AppendRows([]view.Row{{T: 2, Lambda: 0}}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("AppendRows on a logged table = %v, want ErrBadSchema", err)
	}
	if err := db.Drop("pv"); err != nil {
		t.Fatal(err)
	}
	// A dropped table is held by no catalog: appends apply, unlogged.
	if err := p.AppendRows([]view.Row{{T: 3, Lambda: 0}}); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RawLen("raw"); n != 2 || p.NumRows() != 2 {
		t.Fatalf("raw len %d, view rows %d; want 2 and 2", n, p.NumRows())
	}
	want := []string{
		"create-raw raw t r n=1",
		"store-view pv src=raw n=1",
		"steps raw t=[2] pv n=0",
		"drop pv",
	}
	if !reflect.DeepEqual(log.ops, want) {
		t.Fatalf("log ops:\n  got  %q\n  want %q", log.ops, want)
	}
}

// TestCommitStepSingleRecord pins that one ingest step — raw point plus
// derived view rows — and one multi-point request each commit as a single
// logged record, and that a rejected step or request — one stale point
// anywhere in it — leaves both the log and the tables untouched.
func TestCommitStepSingleRecord(t *testing.T) {
	db := NewDB()
	log := &recLog{}
	db.SetCommitLog(log)
	if _, err := db.CreateRawTable("raw", "", "", mustSeries(t, timeseries.Point{T: 1, V: 2})); err != nil {
		t.Fatal(err)
	}
	p := &ProbTable{Name: "pv", Source: "raw"}
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	rows := []view.Row{{T: 2, Lambda: 0}, {T: 2, Lambda: 1}}
	if err := db.CommitStep("raw", timeseries.Point{T: 2, V: 5}, p, rows); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RawLen("raw"); n != 2 {
		t.Fatalf("raw len = %d", n)
	}
	if p.NumRows() != 2 {
		t.Fatalf("view rows = %d", p.NumRows())
	}
	// A stale step is rejected with ErrUnsorted, logging nothing.
	if err := db.CommitStep("raw", timeseries.Point{T: 2, V: 6}, p, rows); !errors.Is(err, timeseries.ErrUnsorted) {
		t.Fatalf("stale step = %v, want ErrUnsorted", err)
	}
	if n, _ := db.RawLen("raw"); n != 2 || p.NumRows() != 2 {
		t.Fatal("rejected step mutated state")
	}
	pts := []timeseries.Point{{T: 3, V: 1}, {T: 4, V: 1}, {T: 5, V: 1}}
	batch := []view.Row{{T: 3, Lambda: 0}, {T: 5, Lambda: 0}, {T: 5, Lambda: 1}}
	for _, bad := range []struct {
		pts  []timeseries.Point
		rows []view.Row
		want error
	}{
		{[]timeseries.Point{{T: 3, V: 1}, {T: 5, V: 1}, {T: 4, V: 1}}, batch, timeseries.ErrUnsorted},
		{[]timeseries.Point{{T: 1, V: 1}, {T: 3, V: 1}}, batch, timeseries.ErrUnsorted}, // stale against the table
		{nil, nil, ErrBadSchema}, // no points
	} {
		if err := db.CommitSteps("raw", bad.pts, p, bad.rows); !errors.Is(err, bad.want) {
			t.Fatalf("request %v with rows %v = %v, want %v", bad.pts, bad.rows, err, bad.want)
		}
	}
	if n, _ := db.RawLen("raw"); n != 2 || p.NumRows() != 2 {
		t.Fatal("rejected request mutated state")
	}
	if err := db.CommitSteps("raw", pts, p, batch); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RawLen("raw"); n != 5 || p.NumRows() != 5 {
		t.Fatalf("raw len %d, view rows %d after the request; want 5 and 5", n, p.NumRows())
	}
	want := []string{
		"create-raw raw t r n=1",
		"store-view pv src=raw n=0",
		"steps raw t=[2] pv n=2",
		"steps raw t=[3 4 5] pv n=3",
	}
	if !reflect.DeepEqual(log.ops, want) {
		t.Fatalf("log ops:\n  got  %q\n  want %q", log.ops, want)
	}
}

// TestCommitLogFailureLeavesStateUnchanged: when the log refuses (e.g. a
// poisoned WAL), the mutation must not be applied — the in-memory state
// can never run ahead of what recovery will reconstruct. Checked for every
// record kind: create-raw, store-view, step (with and without rows), drop.
func TestCommitLogFailureLeavesStateUnchanged(t *testing.T) {
	db := NewDB()
	log := &recLog{}
	db.SetCommitLog(log)
	if _, err := db.CreateRawTable("raw", "", "", mustSeries(t, timeseries.Point{T: 1, V: 2})); err != nil {
		t.Fatal(err)
	}
	p := &ProbTable{Name: "pv", Source: "raw"}
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("wal poisoned")
	log.fail = boom
	if _, err := db.CreateRawTable("raw2", "", "", mustSeries(t)); !errors.Is(err, boom) {
		t.Fatalf("CreateRawTable = %v", err)
	}
	p2 := &ProbTable{Name: "pv2", Source: "raw"}
	if err := db.StoreView(p2); !errors.Is(err, boom) {
		t.Fatalf("StoreView = %v", err)
	}
	// A refused replacement keeps the stored table in place, still logged.
	if err := db.StoreView(&ProbTable{Name: "pv", Source: "raw"}); !errors.Is(err, boom) {
		t.Fatalf("StoreView replacement = %v", err)
	}
	if err := p.AppendRows([]view.Row{{T: 5, Lambda: 0}}); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("AppendRows on the logged table = %v", err)
	}
	if err := db.CommitStep("raw", timeseries.Point{T: 5, V: 1}, p, []view.Row{{T: 5}}); !errors.Is(err, boom) {
		t.Fatalf("CommitStep = %v", err)
	}
	if err := db.CommitStep("raw", timeseries.Point{T: 5, V: 1}, p, nil); !errors.Is(err, boom) {
		t.Fatalf("raw-only CommitStep = %v", err)
	}
	if err := db.Drop("pv"); !errors.Is(err, boom) {
		t.Fatalf("Drop = %v", err)
	}
	if _, err := db.RawTable("raw2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused create registered the table: %v", err)
	}
	if _, err := db.View("pv2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused store-view registered the view: %v", err)
	}
	if n, _ := db.RawLen("raw"); n != 1 {
		t.Fatalf("raw len = %d after refused steps", n)
	}
	if p.NumRows() != 0 {
		t.Fatalf("view rows = %d after refused steps", p.NumRows())
	}
	if q, err := db.View("pv"); err != nil || q != p {
		t.Fatalf("refused drop or replacement changed the view: %v", err)
	}
}

// TestLazyLoaderMaterialises covers the segment-backed view path: the row
// count is visible without triggering the load, the first real access
// materialises exactly once, and a failed load is sticky without the
// table appearing to shrink.
func TestLazyLoaderMaterialises(t *testing.T) {
	p := &ProbTable{Name: "pv"}
	calls := 0
	p.SetLoader(3, func() ([]view.Row, error) {
		calls++
		return []view.Row{{T: 1, Lambda: 0}, {T: 1, Lambda: 1}, {T: 4, Lambda: 0}}, nil
	})
	if n := p.NumRows(); n != 3 || calls != 0 {
		t.Fatalf("NumRows = %d (loader calls %d), want 3 rows without loading", n, calls)
	}
	if got := p.Times(); !reflect.DeepEqual(got, []int64{1, 4}) {
		t.Fatalf("Times = %v", got)
	}
	if calls != 1 {
		t.Fatalf("loader ran %d times", calls)
	}
	if err := p.AppendRows([]view.Row{{T: 9, Lambda: 0}}); err != nil {
		t.Fatal(err)
	}
	if n := p.NumRows(); n != 4 || calls != 1 {
		t.Fatalf("NumRows = %d, loader calls %d", n, calls)
	}

	bad := &ProbTable{Name: "pv2"}
	boom := errors.New("segment corrupt")
	bad.SetLoader(7, func() ([]view.Row, error) { return nil, boom })
	if got := bad.Times(); got != nil {
		t.Fatalf("Times on failed load = %v", got)
	}
	if n := bad.NumRows(); n != 7 {
		t.Fatalf("NumRows after failed load = %d, want 7 (table must not shrink)", n)
	}
	if err := bad.loadErr; !errors.Is(err, boom) {
		t.Fatalf("loadErr = %v", err)
	}
	if err := bad.ForEachGroupCols(0, 100, func(GroupCols) error { return nil }); !errors.Is(err, boom) {
		t.Fatalf("ForEachGroupCols = %v", err)
	}
	if err := bad.AppendRows([]view.Row{{T: 1}}); !errors.Is(err, boom) {
		t.Fatalf("AppendRows = %v", err)
	}
}

// TestAppendRowsGuardFollowsCatalog: AppendRows is refused exactly while a
// logged catalog holds the table — from StoreView or SetCommitLog until the
// log is detached or the table dropped — and a refusal leaves the rows and
// the log untouched.
func TestAppendRowsGuardFollowsCatalog(t *testing.T) {
	db := NewDB()
	p := &ProbTable{Name: "pv"}
	if err := db.StoreView(p); err != nil {
		t.Fatal(err)
	}
	appendOne := func(tt int64) error { return p.AppendRows([]view.Row{{T: tt, Lambda: 0, Prob: 1}}) }
	if err := appendOne(1); err != nil {
		t.Fatalf("unlogged catalog: %v", err)
	}
	log := &recLog{}
	db.SetCommitLog(log)
	if err := appendOne(2); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("after SetCommitLog: %v, want ErrBadSchema", err)
	}
	db.SetCommitLog(nil)
	if err := appendOne(3); err != nil {
		t.Fatalf("after detaching the log: %v", err)
	}
	db.SetCommitLog(log)
	if err := appendOne(4); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("after reattaching the log: %v, want ErrBadSchema", err)
	}
	if err := db.Drop("pv"); err != nil {
		t.Fatal(err)
	}
	if err := appendOne(5); err != nil {
		t.Fatalf("after Drop: %v", err)
	}
	if p.NumRows() != 3 || len(log.ops) != 1 {
		t.Fatalf("%d rows, log %q; want 3 rows and only the drop logged", p.NumRows(), log.ops)
	}
}
