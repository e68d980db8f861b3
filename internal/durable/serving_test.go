package durable

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal/faultfs"
)

// TestCheckpointWhileServing checkpoints repeatedly while concurrent
// writers (ingest steps on a streamed view, 4-row steps on a second view,
// raw-only steps on a third raw table) and readers are in flight. The
// crash image taken after each checkpoint must recover to a consistent
// prefix: every value matches its generator, each step's raw point and
// view rows arrive together, and batches arrive whole. Once the writers
// finish, close and reopen must give back the live catalog exactly, group
// index included. Run under -race to also check the checkpoint's locking
// against the commit path.
func TestCheckpointWhileServing(t *testing.T) {
	const (
		steps       = 300 // CommitStep calls on sensor -> pv
		batches     = 100 // CommitStep calls on aux -> av
		batchN      = 4   // rows per aux step
		bareN       = 400 // raw-only CommitStep calls on bare (naming av)
		checkpoints = 20
	)
	rawVal := func(t int64) float64 { return float64(t) * 0.5 }
	stepRows := func(t int64) []view.Row {
		return []view.Row{
			{T: t, Lambda: -1, Lo: float64(t) - 1, Hi: float64(t), Prob: 0.25},
			{T: t, Lambda: 0, Lo: float64(t), Hi: float64(t) + 1, Prob: 0.75},
		}
	}
	rowFor := func(i int) view.Row {
		return view.Row{T: int64(i), Lambda: i % 4, Lo: float64(i), Hi: float64(i + 1), Prob: 0.25}
	}

	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	db := st.DB()
	for _, name := range []string{"sensor", "aux", "bare"} {
		s, err := timeseries.New([]timeseries.Point{{T: 0, V: rawVal(0)}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateRawTable(name, "t", "r", s); err != nil {
			t.Fatal(err)
		}
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", MetricName: "ewma", Omega: view.Omega{Delta: 1, N: 2}}
	av := &storage.ProbTable{Name: "av", Source: "aux", Omega: view.Omega{Delta: 1, N: 4}}
	for _, p := range []*storage.ProbTable{pv, av} {
		if err := db.StoreView(p); err != nil {
			t.Fatal(err)
		}
	}

	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	writers.Add(3)
	go func() {
		defer writers.Done()
		for i := int64(1); i <= steps; i++ {
			if err := db.CommitStep("sensor", timeseries.Point{T: i, V: rawVal(i)}, pv, stepRows(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for b := 0; b < batches; b++ {
			rows := make([]view.Row, batchN)
			for j := range rows {
				rows[j] = rowFor(b*batchN + j)
			}
			i := int64(b + 1)
			if err := db.CommitStep("aux", timeseries.Point{T: i, V: rawVal(i)}, av, rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := int64(1); i <= bareN; i++ {
			if err := db.CommitStep("bare", timeseries.Point{T: i, V: rawVal(i)}, av, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				if _, err := db.ScanRaw("sensor", 0, math.MaxInt64); err != nil {
					t.Error(err)
					return
				}
				pv.RowsRange(0, math.MaxInt64)
				av.Times()
				db.List()
			}
		}()
	}

	// Checkpoint until the writers are done, and at least checkpoints times.
	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	var images []*faultfs.FS
	for finished := false; !finished || len(images) < checkpoints; {
		select {
		case <-done:
			finished = true
		default:
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		images = append(images, fs.CrashImage())
	}
	stop.Store(true)
	readers.Wait()
	if t.Failed() {
		return
	}

	checkRaw := func(db *storage.DB, name string, max int) int {
		t.Helper()
		s, err := db.SnapshotSeries(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() < 1 || s.Len() > max+1 {
			t.Fatalf("%s: %d points outside [1, %d]", name, s.Len(), max+1)
		}
		for j := 0; j < s.Len(); j++ {
			p, err := s.At(j)
			if err != nil {
				t.Fatal(err)
			}
			if p.T != int64(j) || p.V != rawVal(int64(j)) {
				t.Fatalf("%s[%d] = %+v, want t=%d v=%g", name, j, p, j, rawVal(int64(j)))
			}
		}
		return s.Len()
	}
	for i, img := range images {
		rec := openStore(t, img, Options{Fsync: true, CheckpointBytes: -1})
		rdb := rec.DB()
		n := checkRaw(rdb, "sensor", steps)
		var want []view.Row
		for j := int64(1); j < int64(n); j++ {
			want = append(want, stepRows(j)...)
		}
		if got := mustView(t, rdb, "pv").SnapshotRows(); !sameBits(got, want) {
			t.Fatalf("image %d: pv has %d rows for %d sensor points, want the %d its steps produced", i, len(got), n, len(want))
		}
		checkRaw(rdb, "bare", bareN)
		na := checkRaw(rdb, "aux", batches)
		rows := mustView(t, rdb, "av").SnapshotRows()
		if len(rows) != (na-1)*batchN {
			t.Fatalf("image %d: av has %d rows for %d aux points, want the %d its steps produced", i, len(rows), na, (na-1)*batchN)
		}
		for j, r := range rows {
			if r != rowFor(j) {
				t.Fatalf("image %d: av[%d] = %+v, want %+v", i, j, r, rowFor(j))
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if got := pv.NumRows(); got != 2*steps {
		t.Fatalf("live pv rows = %d, want %d", got, 2*steps)
	}
	if got := av.NumRows(); got != batches*batchN {
		t.Fatalf("live av rows = %d, want %d", got, batches*batchN)
	}
	want := dumpDB(t, db)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, fs, Options{Fsync: true})
	defer st2.Close()
	if got := dumpDB(t, st2.DB()); !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog differs after close and reopen:\n got %+v\nwant %+v", got, want)
	}
}
