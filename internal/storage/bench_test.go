package storage

import (
	"testing"

	"repro/internal/view"
)

// Storage-layer kernels under the CI bench gate: the cost of an online
// append (columns + group index), and the raw scan throughput of the two
// column iterators.

const (
	benchTuples = 25000
	benchPerT   = 8 // rows per tuple -> 200k rows total
)

func benchTable(tb testing.TB) *ProbTable {
	tb.Helper()
	p := &ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: benchPerT}}
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
		if err := p.AppendRows(rows); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// BenchmarkAppendRowsIndexed measures one online ingest batch.
func BenchmarkAppendRowsIndexed(b *testing.B) {
	p := &ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: benchPerT}}
	batch := make([]view.Row, benchPerT)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := int64(i + 1)
		for l := range batch {
			lo := float64(l) * 0.5
			batch[l] = view.Row{T: t, Lambda: l - benchPerT/2, Lo: lo, Hi: lo + 0.5, Prob: 1.0 / benchPerT}
		}
		if err := p.AppendRows(batch); err != nil {
			b.Fatal(err)
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*benchPerT)/s, "rows/s")
	}
}

// BenchmarkScanGroupsCols / BenchmarkScanRangeCols measure pure scan
// throughput over the 200k-row table: summing one column through the
// per-group iterator vs the bulk RangeCols form.
func BenchmarkScanGroupsCols(b *testing.B) {
	p := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := p.ForEachGroupCols(0, benchTuples, func(g GroupCols) error {
			for _, q := range g.Prob {
				sum += q
			}
			return nil
		})
		if err != nil || sum == 0 {
			b.Fatalf("scan: sum=%v err=%v", sum, err)
		}
	}
	reportScanRate(b)
}

func BenchmarkScanRangeCols(b *testing.B) {
	p := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		err := p.RangeCols(0, benchTuples, func(groups []TimeGroup, c Cols) error {
			for _, g := range groups {
				end := g.Off + g.Len
				for _, q := range c.Prob[g.Off:end] {
					sum += q
				}
			}
			return nil
		})
		if err != nil || sum == 0 {
			b.Fatalf("scan: sum=%v err=%v", sum, err)
		}
	}
	reportScanRate(b)
}

func reportScanRate(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(benchTuples*benchPerT)*float64(b.N)/s, "rows/s")
	}
}
