package durable

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// tableDump is the observable state of one table: data plus the group
// index and representative query results, so "recovered equals expected"
// means byte-identical behaviour, not just equal row counts.
type tableDump struct {
	Kind     string
	TimeCol  string
	ValueCol string
	Points   []timeseries.Point
	Meta     storage.ViewMeta
	Rows     []view.Row
	Groups   []storage.TimeGroup
	Times    []int64
}

// dumpDB snapshots every table's full observable state.
func dumpDB(t *testing.T, db *storage.DB) map[string]tableDump {
	t.Helper()
	out := make(map[string]tableDump)
	for _, ti := range db.List() {
		switch ti.Kind {
		case "raw":
			rt, err := db.RawTable(ti.Name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := db.SnapshotSeries(ti.Name)
			if err != nil {
				t.Fatal(err)
			}
			pts := make([]timeseries.Point, 0, s.Len())
			for i := 0; i < s.Len(); i++ {
				p, err := s.At(i)
				if err != nil {
					t.Fatal(err)
				}
				pts = append(pts, p)
			}
			out[ti.Name] = tableDump{
				Kind: "raw", TimeCol: rt.TimeCol, ValueCol: rt.ValueCol, Points: pts,
			}
		case "view":
			p, err := db.View(ti.Name)
			if err != nil {
				t.Fatal(err)
			}
			rows := p.SnapshotRows()
			out[ti.Name] = tableDump{
				Kind: "view", Meta: p.Meta(), Rows: rows,
				Groups: groupsIn(t, p, math.MinInt64, math.MaxInt64),
				Times:  p.Times(),
			}
		}
	}
	return out
}

func openStore(t *testing.T, fs wal.FS, opt Options) *Store {
	t.Helper()
	st, err := Open(fs, "data", opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// seedWorkload drives a small deterministic mixed workload: two raw
// tables, a streamed view per table, steps with rows on one, raw-only
// steps on the other, and a drop.
func seedWorkload(t *testing.T, st *Store, steps int) {
	t.Helper()
	db := st.DB()
	s0, err := timeseries.New([]timeseries.Point{{T: 1, V: 10}, {T: 2, V: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRawTable("sensor", "t", "r", s0); err != nil {
		t.Fatal(err)
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", MetricName: "ewma", Omega: view.Omega{Delta: 0.5, N: 2}}
	if err := db.StoreView(pv); err != nil {
		t.Fatal(err)
	}
	aux, err := timeseries.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRawTable("aux", "", "", aux); err != nil {
		t.Fatal(err)
	}
	av := &storage.ProbTable{Name: "av", Source: "aux", Omega: view.Omega{Delta: 1, N: 2}}
	if err := db.StoreView(av); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		tt := int64(3 + i)
		rows := []view.Row{
			{T: tt, Lambda: -1, Lo: float64(i), Hi: float64(i) + 0.5, Prob: 0.4},
			{T: tt, Lambda: 0, Lo: float64(i) + 0.5, Hi: float64(i) + 1, Prob: 0.6},
		}
		if err := db.CommitStep("sensor", timeseries.Point{T: tt, V: float64(i)}, pv, rows); err != nil {
			t.Fatal(err)
		}
		if err := db.CommitStep("aux", timeseries.Point{T: tt, V: -float64(i)}, av, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Drop("aux"); err != nil {
		t.Fatal(err)
	}
}

func TestReopenRestoresState(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true})
	seedWorkload(t, st, 8)
	want := dumpDB(t, st.DB())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, fs, Options{Fsync: true})
	defer st2.Close()
	got := dumpDB(t, st2.DB())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state differs after reopen:\n got %+v\nwant %+v", got, want)
	}
	// Appends keep working against the recovered (segment-backed) tables.
	pv, err := st2.DB().View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.DB().CommitStep("sensor", timeseries.Point{T: 100, V: 1}, pv,
		[]view.Row{{T: 100, Lambda: 0, Prob: 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashWithoutCloseKeepsAckedState(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true})
	seedWorkload(t, st, 5)
	want := dumpDB(t, st.DB())
	// No Close: crash. Only synced bytes survive; with Fsync on that is
	// everything acknowledged.
	img := fs.CrashImage()
	st2 := openStore(t, img, Options{Fsync: true})
	defer st2.Close()
	if got := dumpDB(t, st2.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("state differs after crash:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointTrimsWALAndSurvivesReopen(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	seedWorkload(t, st, 10)
	want := dumpDB(t, st.DB())
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seqs, err := wal.List(fs, "data/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 {
		t.Fatalf("WAL files after checkpoint: %v, want exactly the live file", seqs)
	}
	segs, err := fs.ReadDir("data/seg")
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files after checkpoint (err=%v)", err)
	}

	// More commits after the checkpoint land in the trimmed WAL.
	pv, err := st.DB().View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DB().CommitStep("sensor", timeseries.Point{T: 200, V: 2}, pv,
		[]view.Row{{T: 200, Lambda: 0, Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	want2 := dumpDB(t, st.DB())

	// Crash (no Close) and recover: manifest + segments + WAL tail.
	img := fs.CrashImage()
	st2 := openStore(t, img, Options{Fsync: true})
	defer st2.Close()
	// Row counts are visible before any segment read (lazy loader).
	if n := mustView(t, st2.DB(), "pv").NumRows(); n != 21 {
		t.Fatalf("recovered pv rows = %d, want 21", n)
	}
	got := dumpDB(t, st2.DB())
	if !reflect.DeepEqual(got, want2) {
		t.Fatalf("state differs after checkpointed crash:\n got %+v\nwant %+v", got, want2)
	}
	_ = want
}

// groupsIn copies the group-index entries that RangeCols hands its callback
// for [tLo, tHi].
func groupsIn(t *testing.T, p *storage.ProbTable, tLo, tHi int64) []storage.TimeGroup {
	t.Helper()
	var out []storage.TimeGroup
	if err := p.RangeCols(tLo, tHi, func(groups []storage.TimeGroup, _ storage.Cols) error {
		out = append([]storage.TimeGroup{}, groups...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustView(t *testing.T, db *storage.DB, name string) *storage.ProbTable {
	t.Helper()
	p, err := db.View(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRepeatedCheckpointsAccumulateSegments(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	db := st.DB()
	s0, err := timeseries.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRawTable("sensor", "", "", s0); err != nil {
		t.Fatal(err)
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", Omega: view.Omega{Delta: 1, N: 2}}
	if err := db.StoreView(pv); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 5; i++ {
			tt := int64(round*5 + i + 1)
			if err := db.CommitStep("sensor", timeseries.Point{T: tt, V: float64(tt)}, pv,
				[]view.Row{{T: tt, Lambda: 0, Prob: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpDB(t, db)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, fs, Options{Fsync: true})
	defer st2.Close()
	if got := dumpDB(t, st2.DB()); !reflect.DeepEqual(got, want) {
		t.Fatal("state differs after multi-checkpoint reopen")
	}
}

// TestStoreViewReplacementInvalidatesSegments pins the generation guard:
// replacing a view wholesale after its rows were checkpointed must not
// resurrect the old segment rows on recovery.
func TestStoreViewReplacementInvalidatesSegments(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	db := st.DB()
	pv := &storage.ProbTable{Name: "pv", Source: "s", Omega: view.Omega{Delta: 1, N: 2}}
	pv.AppendRows([]view.Row{{T: 1, Lambda: 0, Prob: 1}, {T: 2, Lambda: 0, Prob: 1}})
	if err := db.StoreView(pv); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replacement := &storage.ProbTable{Name: "pv", Source: "s", Omega: view.Omega{Delta: 1, N: 2}}
	replacement.AppendRows([]view.Row{{T: 9, Lambda: 0, Prob: 1}})
	if err := db.StoreView(replacement); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, db)

	// Crash before any further checkpoint: recovery = old manifest (two
	// rows) + WAL store-view record (replacement wins).
	img := fs.CrashImage()
	st2 := openStore(t, img, Options{Fsync: true})
	if got := dumpDB(t, st2.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("replacement lost:\n got %+v\nwant %+v", got, want)
	}
	st2.Close()

	// And through a second checkpoint the segments converge too.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, fs, Options{Fsync: true})
	defer st3.Close()
	if got := dumpDB(t, st3.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("replacement lost after checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// edgeRows holds the row shapes a streamed view never produces: Lambda
// that is not the in-group position, a zero-width row, infinite bounds,
// and NaN and negative-zero probabilities.
func edgeRows() []view.Row {
	return []view.Row{
		{T: 1, Lambda: -1, Lo: 19.5, Hi: 20, Prob: 0.25},
		{T: 1, Lambda: 0, Lo: 20, Hi: 20.5, Prob: math.NaN()},
		{T: 1, Lambda: 1, Lo: 20.5, Hi: 21, Prob: math.Copysign(0, -1)},
		{T: 2, Lambda: 7, Lo: 21, Hi: 21, Prob: 1},
		{T: 4, Lambda: -3, Lo: math.Inf(-1), Hi: 19, Prob: 0.125},
		{T: 4, Lambda: 5, Lo: 19, Hi: math.Inf(1), Prob: 0.875},
	}
}

// sameGroups compares group-index entries, their sums bit for bit except
// that any two NaNs match (Go does not fix a computed NaN's payload).
func sameGroups(a, b []storage.TimeGroup) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.Off != y.Off || x.Len != y.Len || !same(x.Num, y.Num) || !same(x.Den, y.Den) {
			return false
		}
	}
	return true
}

// sameBits compares rows bit for bit: reflect.DeepEqual cannot, since
// NaN != NaN, and == would let -0 pass for +0.
func sameBits(a, b []view.Row) bool {
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

// TestReopenPreservesEdgeRows stores the edge shapes and an empty view,
// then recovers them twice — from the WAL alone (crash before any
// checkpoint) and from segments (Close checkpoints) — comparing every row
// bit for bit and the group index exactly.
func TestReopenPreservesEdgeRows(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	meta := storage.ViewMeta{Name: "pv", Source: "raw_values", MetricName: "ARMA-GARCH", Omega: view.Omega{Delta: 0.5, N: 3}}
	if err := st.DB().StoreView(storage.NewProbTable(meta, edgeRows())); err != nil {
		t.Fatal(err)
	}
	empty := storage.ViewMeta{Name: "empty_pv", Source: "raw_values", Omega: view.Omega{Delta: 1, N: 2}}
	if err := st.DB().StoreView(storage.NewProbTable(empty, nil)); err != nil {
		t.Fatal(err)
	}
	// The recovered index must carry the layout below and the sums a fresh
	// build computes, bit for bit (three of them are NaN).
	layout := []storage.TimeGroup{{T: 1, Off: 0, Len: 3}, {T: 2, Off: 3, Len: 1}, {T: 4, Off: 4, Len: 2}}
	wantGroups := groupsIn(t, storage.NewProbTable(meta, edgeRows()), math.MinInt64, math.MaxInt64)
	var got []storage.TimeGroup
	for _, g := range wantGroups {
		got = append(got, storage.TimeGroup{T: g.T, Off: g.Off, Len: g.Len})
	}
	if !reflect.DeepEqual(got, layout) {
		t.Fatalf("fresh build groups = %+v, want layout %+v", wantGroups, layout)
	}
	check := func(how string, db *storage.DB) {
		t.Helper()
		pv := mustView(t, db, "pv")
		if pv.Meta() != meta {
			t.Fatalf("%s: meta = %+v, want %+v", how, pv.Meta(), meta)
		}
		if got := pv.SnapshotRows(); !sameBits(got, edgeRows()) {
			t.Fatalf("%s: rows = %v, want %v", how, got, edgeRows())
		}
		if got := groupsIn(t, pv, math.MinInt64, math.MaxInt64); !sameGroups(got, wantGroups) {
			t.Fatalf("%s: groups = %+v, want %+v", how, got, wantGroups)
		}
		e := mustView(t, db, "empty_pv")
		if e.Meta() != empty || e.NumRows() != 0 {
			t.Fatalf("%s: empty view = %+v with %d rows", how, e.Meta(), e.NumRows())
		}
	}

	st2 := openStore(t, fs.CrashImage(), Options{Fsync: true})
	check("WAL replay", st2.DB())
	st2.Close()

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, fs, Options{Fsync: true})
	defer st3.Close()
	check("segments", st3.DB())
}

// TestAppendAfterReopenExtendsLazyView: a view recovered from segments is
// loaded lazily, and a step that arrives before anything has read it must
// both extend its group index and be logged — a crash right after the step
// recovers segment rows and appended rows alike.
func TestAppendAfterReopenExtendsLazyView(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	s0, err := timeseries.New([]timeseries.Point{{T: 1, V: 1}, {T: 2, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().CreateRawTable("sensor", "", "", s0); err != nil {
		t.Fatal(err)
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", Omega: view.Omega{Delta: 1, N: 2}}
	pv.AppendRows([]view.Row{{T: 1, Lambda: 0, Prob: 0.5}, {T: 1, Lambda: 1, Prob: 0.5}, {T: 2, Lambda: 0, Prob: 1}})
	if err := st.DB().StoreView(pv); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	defer st2.Close()
	q := mustView(t, st2.DB(), "pv")
	if rows, _ := st2.DB().ViewResident(); rows != 0 || q.NumRows() != 3 {
		t.Fatalf("reopened view: %d resident of %d rows before any read, want a pending lazy load", rows, q.NumRows())
	}
	if err := st2.DB().CommitStep("sensor", timeseries.Point{T: 5, V: 5}, q, []view.Row{{T: 5, Lambda: 0, Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := groupsIn(t, q, 1, 9); !reflect.DeepEqual(got, []storage.TimeGroup{
		{T: 1, Off: 0, Len: 2, Num: 0, Den: 1}, {T: 2, Off: 2, Len: 1, Num: 0, Den: 1}, {T: 5, Off: 3, Len: 1, Num: 0, Den: 1},
	}) {
		t.Fatalf("groups after append = %+v", got)
	}
	want := dumpDB(t, st2.DB())

	st3 := openStore(t, fs.CrashImage(), Options{Fsync: true})
	defer st3.Close()
	if got := dumpDB(t, st3.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("append after lazy reopen lost on recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestPoisonedLogRejectsUntilReopen: once a WAL write fails, every later
// commit is refused and in-memory state stops advancing — the catalog
// can never run ahead of what recovery will reconstruct.
func TestPoisonedLogRejectsUntilReopen(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true})
	seedWorkload(t, st, 3)
	want := dumpDB(t, st.DB())

	fs.FailAt(fs.Ops()+1, faultfs.DropUnsynced)
	pv := mustView(t, st.DB(), "pv")
	err := st.DB().CommitStep("sensor", timeseries.Point{T: 50, V: 1}, pv,
		[]view.Row{{T: 50, Lambda: 0, Prob: 1}})
	if err == nil {
		t.Fatal("commit with injected fault succeeded")
	}
	if err := st.DB().CommitStep("sensor", timeseries.Point{T: 51, V: 1}, pv, nil); !errors.Is(err, wal.ErrPoisoned) {
		t.Fatalf("raw-only step after fault = %v, want ErrPoisoned", err)
	}
	if got := dumpDB(t, st.DB()); !reflect.DeepEqual(got, want) {
		t.Fatal("refused commits mutated in-memory state")
	}
	st2 := openStore(t, fs.CrashImage(), Options{Fsync: true})
	defer st2.Close()
	if got := dumpDB(t, st2.DB()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered state differs from last acked state")
	}
}

// TestAppendRowsRefusedOnLoggedView: a view the store's catalog holds
// grows only through CommitStep. AppendRows on its handle is refused with
// storage.ErrBadSchema before any filesystem operation, so nothing reaches
// the WAL and a crash recovers the view without the rows; once the view is
// dropped the handle is a plain table again.
func TestAppendRowsRefusedOnLoggedView(t *testing.T) {
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	seedWorkload(t, st, 2)
	pv := mustView(t, st.DB(), "pv")
	want := dumpDB(t, st.DB())
	ops := fs.Ops()
	if err := pv.AppendRows([]view.Row{{T: 90, Lambda: 0, Prob: 1}}); !errors.Is(err, storage.ErrBadSchema) {
		t.Fatalf("AppendRows on a logged view = %v, want ErrBadSchema", err)
	}
	if n := fs.Ops(); n != ops {
		t.Fatalf("refused append ran %d filesystem operations", n-ops)
	}
	if got := dumpDB(t, st.DB()); !reflect.DeepEqual(got, want) {
		t.Fatal("refused append changed the catalog")
	}
	st2 := openStore(t, fs.CrashImage(), Options{Fsync: true})
	defer st2.Close()
	if got := dumpDB(t, st2.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}

	if err := st.DB().Drop("pv"); err != nil {
		t.Fatal(err)
	}
	if err := pv.AppendRows([]view.Row{{T: 90, Lambda: 0, Prob: 1}}); err != nil {
		t.Fatalf("AppendRows on a dropped view = %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
