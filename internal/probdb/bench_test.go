package probdb

import (
	"fmt"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// Benchmarks for the range aggregates. The "columnar" sub-benchmark names
// are the keys BENCH_BASELINE.json gates. Each reports rows/s over the
// 200k-row view so the CI bench gate (cmd/benchgate) can pin the trajectory.
// Run with -benchmem: allocs/op is part of the gated schema.

const (
	benchTuples = 25000
	benchPerT   = 8 // rows per tuple -> 200k rows total
)

func benchView(tb testing.TB) *storage.ProbTable {
	tb.Helper()
	p := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: benchPerT}}
	rows := make([]view.Row, 0, benchPerT)
	for t := 1; t <= benchTuples; t++ {
		rows = rows[:0]
		for l := 0; l < benchPerT; l++ {
			lo := float64(t%17) + float64(l)*0.5
			rows = append(rows, view.Row{
				T: int64(t), Lambda: l - benchPerT/2,
				Lo: lo, Hi: lo + 0.5, Prob: 1.0 / benchPerT,
			})
		}
		p.AppendRows(rows)
	}
	return p
}

// reportRowsPerSec attaches the gated throughput metric: total view rows
// scanned per second of benchmark time.
func reportRowsPerSec(b *testing.B) {
	rows := float64(benchTuples*benchPerT) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(rows/s, "rows/s")
	}
}

func BenchmarkProbSeries(b *testing.B) {
	p := benchView(b)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ProbSeriesPar(p, 0, benchTuples, 2, 6, 1); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
}

// BenchmarkAnyInRange covers the early-stop scalar reducer that SQL ANY
// runs through scanProbs: no output series to build, pure scan cost. The
// range (2, 5] is narrower than every bench-view tuple's span, so no tuple
// has probability 1 and the scan reads the whole window instead of
// stopping at the first certain tuple.
func BenchmarkAnyInRange(b *testing.B) {
	p := benchView(b)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := AnyInRangePlan(p, 0, benchTuples, 2, 5); err != nil {
				b.Fatal(err)
			}
		}
		reportRowsPerSec(b)
	})
}

func BenchmarkRangeProbAt(b *testing.B) {
	p := benchView(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RangeProbAt(p, int64(1+i%benchTuples), 2, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchPathsIdentical pins the acceptance criterion directly: over the
// benchmark view the column kernels and the row oracle return byte-identical
// series.
func TestBenchPathsIdentical(t *testing.T) {
	p := benchView(t)
	gotE, _, err := ExpectedSeriesPar(p, 0, benchTuples, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantE, err := rowExpectedSeries(p, 0, benchTuples)
	if err != nil {
		t.Fatal(err)
	}
	gotP, _, err := ProbSeriesPar(p, 0, benchTuples, 2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := rowProbSeries(p, 0, benchTuples, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotE) != benchTuples || len(gotP) != benchTuples {
		t.Fatalf("series lengths %d/%d, want %d", len(gotE), len(gotP), benchTuples)
	}
	for i := range gotE {
		if gotE[i] != wantE[i] || gotP[i] != wantP[i] {
			t.Fatalf("index %d: column kernel and row oracle diverge", i)
		}
	}
}

// BenchmarkExpectedSeriesParallel runs the pooled kernel over the 200k-row
// view at fixed worker counts. The workers=N sub-names (rather than -cpu
// suffixes alone) keep benchgate keys stable: stripProcSuffix drops the
// trailing GOMAXPROCS marker, so a -cpu sweep folds into these same keys
// and the gate takes the best run. On a single-core box every count
// degrades to roughly sequential speed; the >=1.8x target is a multicore
// CI property.
func BenchmarkExpectedSeriesParallel(b *testing.B) {
	p := benchView(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExpectedSeriesPar(p, 0, benchTuples, w); err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b)
		})
	}
}

// BenchmarkFusedSeries pins the fused multi-statistic pass: three
// statistics in one scan (sequential and pooled) against the single-
// statistic fused scan — the acceptance target is stats=3 under 1.5x the
// cost of one single-statistic scan.
func BenchmarkFusedSeries(b *testing.B) {
	p := benchView(b)
	all := FusedStats{Expected: true, Prob: true, Count: true}
	run := func(name string, want FusedStats, workers int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := FusedSeries(p, 0, benchTuples, 2, 6, want, workers); err != nil {
					b.Fatal(err)
				}
			}
			reportRowsPerSec(b)
		})
	}
	run("stats=3/workers=1", all, 1)
	run("stats=3/workers=4", all, 4)
	run("stats=1/workers=1", FusedStats{Expected: true}, 1)
}
