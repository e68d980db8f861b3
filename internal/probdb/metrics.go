package probdb

import (
	"repro/internal/obs"
	"repro/internal/storage"
)

var (
	metKernelCalls = obs.Default.Counter("tspdb_probdb_kernel_calls_total",
		"Aggregate/point kernel invocations.")
	metGroupsScanned = obs.Default.Counter("tspdb_probdb_groups_scanned_total",
		"Distinct timestamps in ranges handed to the kernels.")
	metRowsScanned = obs.Default.Counter("tspdb_probdb_rows_scanned_total",
		"Rows in ranges handed to the kernels (tspdb_probdb_rows_read_total counts those read).")
	metRowsRead = obs.Default.Counter("tspdb_probdb_rows_read_total",
		"Rows the kernels read: a window scan skips the rows outside its value range, an early stop the tuples after it; a tuple read by several passes counts once per pass.")
	metParScans = obs.Default.Counter("tspdb_probdb_parallel_scans_total",
		"Range scans executed by the chunked worker pool.")
	metSeqScans = obs.Default.Counter("tspdb_probdb_sequential_scans_total",
		"Range scans served inline (workers <= 1, or the window sat below the chunk cutoff).")
	metFusedScans = obs.Default.Counter("tspdb_probdb_fused_scans_total",
		"Fused passes computing two or more statistics in one scan.")
	metScanWorkers = obs.Default.Histogram("tspdb_probdb_scan_workers",
		"Workers per pooled range scan.", []float64{2, 4, 8, 16, 32})
	metScanChunks = obs.Default.Histogram("tspdb_probdb_scan_chunks",
		"Chunks per pooled range scan.", []float64{2, 4, 8, 16, 32, 64, 128})
)

// noteScan accounts one kernel invocation over a group span. One call per
// RangeCols callback: three atomic adds, nothing per row.
func noteScan(groups []storage.TimeGroup) {
	metKernelCalls.Inc()
	if n := len(groups); n > 0 {
		metGroupsScanned.Add(int64(n))
		first, last := groups[0], groups[n-1]
		metRowsScanned.Add(int64(last.Off + last.Len - first.Off))
	}
}

// notePlan accounts how one range scan executed: the rows it read, and for
// a pooled scan its worker and chunk counts. One call per query, nothing
// per chunk.
func notePlan(plan ScanPlan) {
	noteRowsRead(plan.RowsRead)
	if plan.Workers > 1 {
		metParScans.Inc()
		metScanWorkers.Observe(float64(plan.Workers))
		metScanChunks.Observe(float64(plan.Chunks))
		return
	}
	metSeqScans.Inc()
}

// noteRowsRead accounts the rows one query's kernel read: one call per
// query, after any chunks have summed their counts.
func noteRowsRead(n int) {
	metRowsRead.Add(int64(n))
}

// noteScanGroup accounts a point-query kernel touching one group.
func noteScanGroup(rows int) {
	metGroupsScanned.Inc()
	metRowsScanned.Add(int64(rows))
}
