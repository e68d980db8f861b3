package probdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Parallel partitioned column scans and the fused multi-statistic pass.
//
// The chunked runtime below spreads one RangeCols span over a small worker
// pool: storage.ChunkGroups splits the group index into contiguous,
// row-balanced chunks, workers claim chunks off an atomic cursor, and every
// chunk writes its per-group results into preallocated, disjoint slots of
// the output — so the merged result is a pure function of the input, not of
// scheduling. Cross-group reductions (the expected count's sum) are folded
// sequentially in group order after the pool joins, so the addition
// sequence is the same at every worker count. Together these give the same
// guarantee shape as the parallel view builder: byte-identical output at any
// worker count.
//
// FusedSeries is the second half and the only window kernel: one pass over
// the group index and the Lo/Hi/Prob columns that computes any subset of
// {expected series, prob series, expected count} simultaneously, per
// accumulator performing the same operations in the same order as the row
// oracle — a dashboard issuing all three statistics pays one scan instead
// of three. The expected series reads each tuple's sums off the group
// index; the probabilities read only the rows the range can touch.
// ExpectedSeriesPar, ProbSeriesPar and ExpectedCountPar are its
// single-statistic projections; workers = 1 runs them on the calling
// goroutine.
//
// AnyInRangePlan and AllInRangePlan (columnar.go) stay on the sequential
// scanProbs reducer on purpose: they allocate nothing, and they decide the
// answer mid-scan, which chunking would forfeit.

// parCutoffRows is the sequential fast-path threshold: a window covering
// fewer rows runs on the calling goroutine, so small queries pay zero pool
// overhead. A variable (not a const) so tests can force the pool onto small
// tables; production code never mutates it.
var parCutoffRows = 8192

// parChunksPerWorker over-partitions the span relative to the worker count
// so an unlucky split (one chunk of dense groups) cannot serialise the
// scan: idle workers steal the remaining chunks off the cursor.
const parChunksPerWorker = 4

// errNoStats rejects a fused pass that requests no statistics.
var errNoStats = fmt.Errorf("%w: no statistics requested", ErrBadArg)

// ScanPlan reports how a kernel invocation executed, for explain output:
// Workers goroutines over Chunks contiguous group chunks ({1, 1} for the
// sequential fast path, {0, 0} for a scan that never parallelises), and
// RowsRead, the rows it actually read: its window's rows less those grid
// narrowing or an early stop skipped, and none for an expected-value-only
// pass, which reads the group index alone.
type ScanPlan struct {
	Workers  int
	Chunks   int
	RowsRead int
}

// seqPlan is the fast-path plan.
var seqPlan = ScanPlan{Workers: 1, Chunks: 1}

// runSequential is forEachGroupPar's fast path: the whole span as one chunk
// on the calling goroutine.
//
//tspdb:kernel
func runSequential(n int, runChunk func(lo, hi int) (int, error)) (ScanPlan, error) {
	plan := seqPlan
	var err error
	plan.RowsRead, err = runChunk(0, n)
	notePlan(plan)
	return plan, err
}

// forEachGroupPar runs runChunk(lo, hi) over contiguous sub-spans of groups
// that concatenate to [0, len(groups)), either inline (sequential fast
// path) or on a worker pool. runChunk must write only into output slots
// owned by its span, and returns the rows it read; their sum over the
// chunks is the plan's RowsRead, and tspdb_probdb_rows_read_total gains it
// once. On failure the error of the earliest failing chunk is returned —
// chunks before it all succeeded, so it is the same error the sequential
// left-to-right scan would have hit first.
//
// Callers invoke this inside a RangeCols callback: the table read lock is
// held, and the pool joins before returning, so no worker ever touches the
// column slices after the callback ends.
//
//tspdb:kernel
func forEachGroupPar(groups []storage.TimeGroup, workers int, runChunk func(lo, hi int) (int, error)) (ScanPlan, error) {
	if workers <= 1 || storage.SpanRows(groups) < parCutoffRows {
		return runSequential(len(groups), runChunk)
	}
	chunks := storage.ChunkGroups(groups, workers*parChunksPerWorker)
	if len(chunks) <= 1 {
		return runSequential(len(groups), runChunk)
	}
	if workers > len(chunks) {
		workers = len(chunks)
	}
	var (
		cursor atomic.Int64 // next unclaimed chunk
		failed atomic.Int64 // lowest failing chunk index; len(chunks) = none
		wg     sync.WaitGroup
	)
	// One slot per chunk, written only by the worker that ran it.
	type chunkResult struct {
		read int
		err  error
	}
	results := make([]chunkResult, len(chunks))
	failed.Store(int64(len(chunks)))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				// Stop claiming past the end, or past a failed chunk: the
				// sequential scan would never have reached those groups.
				if ci >= len(chunks) || int64(ci) > failed.Load() {
					return
				}
				ch := chunks[ci]
				n, err := runChunk(ch.Lo, ch.Hi)
				results[ci] = chunkResult{read: n, err: err}
				if err == nil {
					continue
				}
				for {
					cur := failed.Load()
					if int64(ci) >= cur || failed.CompareAndSwap(cur, int64(ci)) {
						break
					}
				}
				return
			}
		}()
	}
	wg.Wait()
	plan := ScanPlan{Workers: workers, Chunks: len(chunks)}
	for _, r := range results {
		plan.RowsRead += r.read
	}
	notePlan(plan)
	if i := failed.Load(); int(i) < len(chunks) {
		return plan, results[i].err
	}
	return plan, nil
}

// fusedChunk evaluates one contiguous chunk of groups into preallocated,
// chunk-owned output slots: outE[i]/outP[i]/outQ[i] belong to groups[i].
// A nil slice deselects that statistic. The expected value is the group
// index's Num/Den, O(1) per tuple; the range probability reads the tuple's
// narrowed span through groupRangeProb. It returns the rows it read. The
// first zero-mass group stops the chunk.
//
//tspdb:kernel
func fusedChunk(groups []storage.TimeGroup, c storage.Cols, lo, hi float64, outE, outP []TimeSeriesPoint, outQ []float64) (int, error) {
	wantQ := outP != nil || outQ != nil
	read := 0
	for i, g := range groups {
		if outE != nil {
			if g.Den == 0 {
				return read, errZeroMass
			}
			outE[i] = TimeSeriesPoint{T: g.T, Value: g.Num / g.Den}
		}
		if !wantQ {
			continue
		}
		q, n := groupRangeProb(g, c, lo, hi)
		read += n
		if outP != nil {
			outP[i] = TimeSeriesPoint{T: g.T, Value: q}
		}
		if outQ != nil {
			outQ[i] = q
		}
	}
	return read, nil
}

// FusedStats selects which statistics one FusedSeries pass computes.
type FusedStats struct {
	Expected bool // expected-value series
	Prob     bool // P(lo < R_t <= hi) series
	Count    bool // expected number of tuples in (lo, hi]
}

// n reports how many statistics are selected.
func (s FusedStats) n() int {
	n := 0
	if s.Expected {
		n++
	}
	if s.Prob {
		n++
	}
	if s.Count {
		n++
	}
	return n
}

// TimeSeriesPoint pairs a timestamp with a per-tuple scalar.
type TimeSeriesPoint struct {
	T     int64
	Value float64
}

// FusedResult holds the statistics of one fused pass; deselected fields
// stay zero, and a failed pass returns the zero value.
type FusedResult struct {
	Expected []TimeSeriesPoint
	Prob     []TimeSeriesPoint
	Count    float64
}

// FusedSeries computes any subset of {expected series, prob series,
// expected count} over [tLo, tHi] in a single chunked column scan. lo/hi are
// the value range of the Prob and Count statistics (ignored, and not
// validated, when neither is selected). Results are byte-identical to the
// row oracle at any worker count; workers <= 1, or a window below the chunk
// cutoff, runs sequentially on the calling goroutine.
//
// Error shape: nil view and an empty selection are ErrBadArg, an empty
// window is ErrNoRows and wins over an invalid value range, an invalid range
// (when Prob or Count is selected) and a zero-mass group (when Expected is
// selected) are ErrBadArg. The pass is all-or-nothing — one statistic's
// error fails the whole call.
func FusedSeries(p *storage.ProbTable, tLo, tHi int64, lo, hi float64, want FusedStats, workers int) (FusedResult, ScanPlan, error) {
	var plan ScanPlan
	if p == nil {
		return FusedResult{}, plan, errNilView
	}
	if want.n() == 0 {
		return FusedResult{}, plan, errNoStats
	}
	if want.n() > 1 {
		metFusedScans.Inc()
	}
	var res FusedResult
	found := false
	err := p.RangeCols(tLo, tHi, func(groups []storage.TimeGroup, c storage.Cols) error {
		noteScan(groups)
		if len(groups) == 0 {
			return nil
		}
		found = true
		// Validation sits behind the empty-window check on purpose: like
		// RangeProb over no rows, a window with no tuples reports ErrNoRows
		// even when lo/hi are malformed.
		if (want.Prob || want.Count) && !validRange(lo, hi) {
			return errRange(lo, hi)
		}
		var outE, outP []TimeSeriesPoint
		var outQ []float64
		if want.Expected {
			outE = make([]TimeSeriesPoint, len(groups))
		}
		if want.Prob {
			outP = make([]TimeSeriesPoint, len(groups))
		}
		// Count shares Prob's per-group q: when both are selected the fold
		// below reads the Prob series instead of a separate scratch lane.
		if want.Count && !want.Prob {
			outQ = make([]float64, len(groups))
		}
		var err error
		plan, err = forEachGroupPar(groups, workers, func(gl, gh int) (int, error) {
			var e, pr []TimeSeriesPoint
			var qs []float64
			if outE != nil {
				e = outE[gl:gh]
			}
			if outP != nil {
				pr = outP[gl:gh]
			}
			if outQ != nil {
				qs = outQ[gl:gh]
			}
			return fusedChunk(groups[gl:gh], c, lo, hi, e, pr, qs)
		})
		if err != nil {
			return err
		}
		res.Expected, res.Prob = outE, outP
		if want.Count {
			// Sequential in-order fold: the same addition sequence at
			// any worker count, so the sum is bit-identical. The
			// parallel phase only filled the per-group terms.
			sum := 0.0
			if outQ != nil {
				for _, q := range outQ {
					sum += q
				}
			} else {
				for i := range outP {
					sum += outP[i].Value
				}
			}
			res.Count = sum
		}
		return nil
	})
	if err != nil {
		return FusedResult{}, plan, err
	}
	if !found {
		return FusedResult{}, plan, ErrNoRows
	}
	return res, plan, nil
}

// ExpectedSeriesPar returns the expected true value at every timestamp of
// the view within [tLo, tHi] — the model-based view abstraction of MauveDB
// (reference [25]) recovered from the probabilistic database — on the
// chunked worker pool: identical output bytes (values and error shape) at
// any worker count, plus the scan plan for explain output.
func ExpectedSeriesPar(p *storage.ProbTable, tLo, tHi int64, workers int) ([]TimeSeriesPoint, ScanPlan, error) {
	res, plan, err := FusedSeries(p, tLo, tHi, 0, 0, FusedStats{Expected: true}, workers)
	return res.Expected, plan, err
}

// ProbSeriesPar returns P(lo < R_t <= hi) at every timestamp of the view
// within [tLo, tHi], on the chunked worker pool.
func ProbSeriesPar(p *storage.ProbTable, tLo, tHi int64, lo, hi float64, workers int) ([]TimeSeriesPoint, ScanPlan, error) {
	res, plan, err := FusedSeries(p, tLo, tHi, lo, hi, FusedStats{Prob: true}, workers)
	return res.Prob, plan, err
}

// ExpectedCountPar returns the expected number of timestamps in [tLo, tHi]
// whose true value lies in (lo, hi]: the sum of per-tuple probabilities
// (linearity of expectation, no independence needed). The per-group
// probabilities are computed on the chunked worker pool; the sum folds
// sequentially in group order, so the result is bit-identical at any
// worker count.
func ExpectedCountPar(p *storage.ProbTable, tLo, tHi int64, lo, hi float64, workers int) (float64, ScanPlan, error) {
	res, plan, err := FusedSeries(p, tLo, tHi, lo, hi, FusedStats{Count: true}, workers)
	return res.Count, plan, err
}
