package durable

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal/faultfs"
)

// benchStore opens a store over a fresh in-memory filesystem with one
// empty raw table and one streamed view, automatic checkpoints off.
func benchStore(b *testing.B, fsync bool) (*faultfs.FS, *Store, *storage.ProbTable) {
	b.Helper()
	fs := faultfs.New()
	st, err := Open(fs, "data", Options{Fsync: fsync, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	s0, err := timeseries.New(nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.DB().CreateRawTable("sensor", "", "", s0); err != nil {
		b.Fatal(err)
	}
	pv := &storage.ProbTable{Name: "pv", Source: "sensor", Omega: view.Omega{Delta: 0.5, N: 2}}
	if err := st.DB().StoreView(pv); err != nil {
		b.Fatal(err)
	}
	return fs, st, pv
}

func benchRows(tt int64, n int) []view.Row {
	rows := make([]view.Row, n)
	for i := range rows {
		rows[i] = view.Row{T: tt, Lambda: i - n/2, Lo: float64(i), Hi: float64(i) + 0.5, Prob: 1 / float64(n)}
	}
	return rows
}

// BenchmarkWALAppend measures committed ingest-step throughput through
// the write-ahead path: one WAL record (raw point + 5 view rows) per
// step, with and without a per-commit durability barrier.
func BenchmarkWALAppend(b *testing.B) {
	for _, fsync := range []bool{false, true} {
		b.Run(fmt.Sprintf("fsync=%v", fsync), func(b *testing.B) {
			_, st, pv := benchStore(b, fsync)
			defer st.Close()
			db := st.DB()
			recBytes := len(encodeSteps("sensor", []timeseries.Point{{T: 1, V: 21}}, "pv", benchRows(1, 5)))
			b.SetBytes(int64(recBytes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tt := int64(i + 1)
				if err := db.CommitStep("sensor", timeseries.Point{T: tt, V: 21}, pv, benchRows(tt, 5)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay200k measures crash recovery over a WAL holding
// 200k view rows in 2,000 step records of 100 rows (no checkpoint to
// shortcut it): each iteration opens a fresh copy of the crashed
// filesystem and replays the full log.
func BenchmarkRecoveryReplay200k(b *testing.B) {
	const totalRows, batch = 200_000, 100
	fs, st, pv := benchStore(b, false)
	defer st.Close()
	for n := 0; n < totalRows/batch; n++ {
		tt := int64(n + 1)
		if err := st.DB().CommitStep("sensor", timeseries.Point{T: tt, V: 21}, pv, benchRows(tt, batch)); err != nil {
			b.Fatal(err)
		}
	}
	// One explicit barrier so the whole log survives the crash image.
	if err := st.log.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		img := fs.CrashImage()
		b.StartTimer()
		st2, err := Open(img, "data", Options{CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		pv2, err := st2.DB().View("pv")
		if err != nil {
			b.Fatal(err)
		}
		if n := pv2.NumRows(); n != totalRows {
			b.Fatalf("replayed %d rows, want %d", n, totalRows)
		}
		b.StopTimer()
		st2.Close()
		b.StartTimer()
	}
}

// BenchmarkViewSegmentLoad measures Open's load of a checkpointed view:
// one segment of 500 tuples of n = 8 rows, read whole, verified and
// decoded. The workload and the checkpoint that writes the segment run
// outside the timer.
func BenchmarkViewSegmentLoad(b *testing.B) {
	const tuples, n = 500, 8
	fs, st, _ := benchStore(b, false)
	defer st.Close()
	pv := &storage.ProbTable{Name: "pv8", Source: "sensor", Omega: view.Omega{Delta: 0.5, N: n}}
	if err := st.DB().StoreView(pv); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < tuples; i++ {
		tt := int64(i + 1)
		if err := st.DB().CommitStep("sensor", timeseries.Point{T: tt, V: 21}, pv, benchRows(tt, n)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	m, err := readManifest(fs, "data")
	if err != nil {
		b.Fatal(err)
	}
	var pv8 manifestView
	for _, v := range m.Views {
		if v.Name == "pv8" {
			pv8 = v
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := st.loadView(pv8)
		if err != nil || len(rows) != tuples*n {
			b.Fatalf("loaded %d rows (%v), want %d", len(rows), err, tuples*n)
		}
	}
}
