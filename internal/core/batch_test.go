package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/density"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// rowBits is rows with every float replaced by its bit pattern, so a
// comparison is exact: -0 differs from 0 and NaN equals itself.
func rowBits(rows []view.Row) [][5]uint64 {
	out := make([][5]uint64, len(rows))
	for i, r := range rows {
		out[i] = [5]uint64{uint64(r.T), uint64(r.Lambda),
			math.Float64bits(r.Lo), math.Float64bits(r.Hi), math.Float64bits(r.Prob)}
	}
	return out
}

// resultBits is one step's result in exact form.
type resultBits struct {
	Rows                   [][5]uint64
	Cleaned                uint64
	Erroneous, TrendChange bool
}

func bitsOf(r *StepResult) resultBits {
	return resultBits{rowBits(r.Rows), math.Float64bits(r.Cleaned), r.Erroneous, r.TrendChange}
}

// dirtySeries is an AR(1) series with a lone gross outlier at index 150
// and a level shift from index 200 on that lasts far longer than any
// OCMax below: the cleaning stream marks the outlier erroneous and, after
// OCMax marks in the shift, fires a trend change.
func dirtySeries(n int) *timeseries.Series {
	vs := arSeries(n, 21).Values()
	vs[150] += 500
	for i := 200; i < n; i++ {
		vs[i] += 60
	}
	return timeseries.FromValues(vs)
}

// TestStepBatchMatchesSequentialSteps: a stream fed in batches of varying
// size produces, bit for bit, the rows and cleaning outcomes of the same
// points stepped one at a time — on a plain stream and on a C-GARCH
// stream, with batches that cross the erroneous value and the trend
// change — and leaves the same raw table, view and model window.
func TestStepBatchMatchesSequentialSteps(t *testing.T) {
	const h, n = 90, 260
	full := dirtySeries(n)
	for _, tc := range []struct {
		name  string
		clean *CleanStreamConfig
	}{
		{"plain", nil},
		{"cgarch", &CleanStreamConfig{OCMax: 8, SVMax: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			open := func() (*Engine, *Stream) {
				e := NewEngine()
				warm, err := full.Slice(0, h)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RegisterSeries("src", warm); err != nil {
					t.Fatal(err)
				}
				s, err := e.OpenStream(StreamConfig{Source: "src", ViewName: "pv", H: h,
					Omega: view.Omega{Delta: 0.5, N: 4}, Clean: tc.clean})
				if err != nil {
					t.Fatal(err)
				}
				return e, s
			}
			seqEngine, seq := open()
			batchEngine, batched := open()

			var want, got []resultBits
			for i := h; i < n; i++ {
				p, err := full.At(i)
				if err != nil {
					t.Fatal(err)
				}
				res, err := seq.StepDetailed(p)
				if err != nil {
					t.Fatalf("sequential step %d: %v", i, err)
				}
				want = append(want, bitsOf(res))
			}
			erroneous, trend := 0, 0
			for i, size := h, 3; i < n; i, size = i+size, size%7+1 {
				size = min(size, n-i)
				sl, err := full.Slice(i, i+size)
				if err != nil {
					t.Fatal(err)
				}
				pts := make([]timeseries.Point, size)
				for k := range pts {
					if pts[k], err = sl.At(k); err != nil {
						t.Fatal(err)
					}
				}
				res, err := batched.StepBatch(pts)
				if err != nil {
					t.Fatalf("batch at %d (+%d): %v", i, size, err)
				}
				if len(res) != size {
					t.Fatalf("batch at %d: %d results for %d points", i, len(res), size)
				}
				for k := range res {
					got = append(got, bitsOf(&res[k]))
					// Counted only past a batch's first point: there the
					// model state is the batch's own advanced copy.
					if k > 0 && res[k].Erroneous {
						erroneous++
					}
					if k > 0 && res[k].TrendChange {
						trend++
					}
				}
			}
			if tc.clean != nil && (erroneous == 0 || trend == 0) {
				t.Fatalf("batches crossed %d erroneous values and %d trend changes inside a batch; want both", erroneous, trend)
			}
			if !reflect.DeepEqual(got, want) {
				for k := range want {
					if k >= len(got) || !reflect.DeepEqual(got[k], want[k]) {
						t.Fatalf("point %d: batched result differs from the sequential step", h+k)
					}
				}
				t.Fatalf("batched results differ: %d vs %d", len(got), len(want))
			}
			if !reflect.DeepEqual(rowBits(batched.table.SnapshotRows()), rowBits(seq.table.SnapshotRows())) {
				t.Fatal("batched view differs from the sequential view")
			}
			nb, _ := batchEngine.DB().RawLen("src")
			ns, _ := seqEngine.DB().RawLen("src")
			if nb != ns || batched.Steps() != seq.Steps() {
				t.Fatalf("raw %d vs %d points, steps %d vs %d", nb, ns, batched.Steps(), seq.Steps())
			}
			if !reflect.DeepEqual(modelWindow(batched), modelWindow(seq)) {
				t.Fatal("batched model window differs from the sequential one")
			}
		})
	}
}

// modelWindow is the stream's current model window (the C-GARCH
// processor's cleaned window when cleaning).
func modelWindow(s *Stream) []float64 {
	if s.proc != nil {
		return s.proc.Window()
	}
	return append([]float64(nil), s.window...)
}

// failingMetric fails the after-th Infer call from now on.
type failingMetric struct {
	density.Metric
	after int // calls left before the failing one; negative: never fail
}

func (m *failingMetric) Infer(window []float64) (*density.Inference, error) {
	if m.after == 0 {
		m.after = -1
		return nil, errInjected
	}
	if m.after > 0 {
		m.after--
	}
	return m.Metric.Infer(window)
}

// walBytes sums the sizes of the WAL files under a data directory.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "wal", "*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no WAL files under %s (%v)", dir, err)
	}
	var n int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// TestStepBatchAtomic: a batch whose k-th point is out of order, or whose
// k-th inference fails, returns one error and no rows, and leaves the raw
// table, the model window, the view and the WAL exactly as they were —
// on a plain and on a C-GARCH stream of a durable engine. The stream then
// takes the same points as if the failed batch had never been sent.
func TestStepBatchAtomic(t *testing.T) {
	const h = 90
	full := dirtySeries(200)
	point := func(i int) timeseries.Point {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	points := func(from, to int) []timeseries.Point {
		var out []timeseries.Point
		for i := from; i < to; i++ {
			out = append(out, point(i))
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		clean *CleanStreamConfig
	}{
		{"plain", nil},
		{"cgarch", &CleanStreamConfig{OCMax: 8, SVMax: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			e, err := OpenEngine(Config{DataDir: dir, Fsync: true, CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			inner, err := density.NewARMAGARCH(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			metric := &failingMetric{Metric: inner, after: -1}
			warm, err := full.Slice(0, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterSeries("src", warm); err != nil {
				t.Fatal(err)
			}
			s, err := e.OpenStream(StreamConfig{Source: "src", ViewName: "pv", H: h, Metric: metric,
				Omega: view.Omega{Delta: 0.5, N: 4}, Clean: tc.clean})
			if err != nil {
				t.Fatal(err)
			}
			control := NewEngine()
			cwarm, err := full.Slice(0, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := control.RegisterSeries("src", cwarm); err != nil {
				t.Fatal(err)
			}
			cs, err := control.OpenStream(StreamConfig{Source: "src", ViewName: "pv", H: h,
				Omega: view.Omega{Delta: 0.5, N: 4}, Clean: tc.clean})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.StepBatch(points(h, h+5)); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.StepBatch(points(h, h+5)); err != nil {
				t.Fatal(err)
			}

			type state struct {
				raw, rows int
				steps     int64
				window    []float64
				wal       int64
			}
			snap := func() state {
				raw, _ := e.DB().RawLen("src")
				return state{raw, s.table.NumRows(), s.Steps(), modelWindow(s), walBytes(t, dir)}
			}
			before := snap()

			stale := points(h+5, h+10)
			stale[3].T = stale[1].T // the 4th point does not follow the 3rd
			res, err := s.StepBatch(stale)
			if !errors.Is(err, ErrOutOfOrder) || res != nil {
				t.Fatalf("out-of-order batch = %d results, %v; want none and ErrOutOfOrder", len(res), err)
			}
			if after := snap(); !reflect.DeepEqual(after, before) {
				t.Fatalf("out-of-order batch changed state: %+v -> %+v", before, after)
			}

			metric.after = 3 // the 4th inference of the next batch fails
			res, err = s.StepBatch(points(h+5, h+10))
			if !errors.Is(err, errInjected) || res != nil {
				t.Fatalf("failing batch = %d results, %v; want none and the inference error", len(res), err)
			}
			if after := snap(); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed batch changed state: %+v -> %+v", before, after)
			}

			// The stream takes the same points as if nothing had failed.
			for _, st := range []*Stream{s, cs} {
				if _, err := st.StepBatch(points(h+5, 190)); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(rowBits(s.table.SnapshotRows()), rowBits(cs.table.SnapshotRows())) {
				t.Fatal("view after the failed batches differs from a stream that never saw them")
			}
		})
	}
}
