// Package view implements the Omega-view builder of Section VI: the
// component that evaluates the probability value generation query
// (Definition 2) and materialises tuple-level probabilistic views.
//
// Given the view parameters Delta and n, the Omega ranges are
// {r̂_t + lambda*Delta | lambda = -n/2 .. n/2}, and for each tuple the view
// holds the n probabilities
//
//	rho_lambda = P_t(R_t = r̂_t+(lambda+1)Delta) - P_t(R_t = r̂_t+lambda*Delta)   (Eq. 9)
//
// The builder supports the naive path (evaluate the CDF directly for every
// tuple) and the sigma-cache path (reuse pre-computed grids across tuples
// with similar sigma, Section VI-A/B). Both online (streaming) and offline
// (time-interval query) modes are provided.
//
// Offline generation is embarrassingly parallel — every tuple's n rows are
// a pure function of that tuple — so Generate fans contiguous tuple windows
// out across a worker pool (Builder.Parallelism) with each worker writing a
// disjoint span of one pre-sized row array. The output is byte-identical to
// the sequential build regardless of scheduling, and the shared sigma-cache
// is safe for concurrent readers.
package view

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/density"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/sigmacache"
	"repro/internal/timeseries"
)

// Errors reported by the builder.
var (
	ErrBadOmega = errors.New("view: invalid omega parameters")
	ErrBadArg   = errors.New("view: invalid argument")
	ErrNoTuples = errors.New("view: no tuples in the requested range")
)

// Omega holds the view parameters of Section VI.
type Omega struct {
	Delta float64 // range width (positive)
	N     int     // number of ranges (positive, even)
}

// Validate checks the view parameters.
func (o Omega) Validate() error {
	if o.Delta <= 0 || math.IsNaN(o.Delta) || math.IsInf(o.Delta, 0) {
		return fmt.Errorf("%w: delta=%v", ErrBadOmega, o.Delta)
	}
	if o.N <= 0 || o.N%2 != 0 {
		return fmt.Errorf("%w: n=%d (must be positive and even)", ErrBadOmega, o.N)
	}
	return nil
}

// Tuple is a stored density inference: the per-time parameters the system
// keeps alongside each raw value (Section II-A: "The system stores the
// inferred probability density functions").
type Tuple struct {
	T     int64             // timestamp
	RHat  float64           // expected true value
	Sigma float64           // density scale (Gaussian stddev)
	Dist  dist.Distribution // full density; used by the naive path
}

// Row is one output row of the probabilistic view: the probability that the
// true value at time T lies in [Lo, Hi].
type Row struct {
	T      int64
	Lambda int
	Lo, Hi float64
	Prob   float64
}

// View is a materialised probabilistic view (the prob_view table of Fig. 1).
type View struct {
	Omega Omega
	Rows  []Row
}

// TuplesFromSeries runs a dynamic density metric over sliding windows of s
// and returns one Tuple per inferable time step whose timestamp lies in
// [tLo, tHi]. This is the inference stage that precedes view generation.
func TuplesFromSeries(s *timeseries.Series, metric density.Metric, h int, tLo, tHi int64) ([]Tuple, error) {
	if metric == nil {
		return nil, fmt.Errorf("%w: nil metric", ErrBadArg)
	}
	if h < metric.MinWindow() {
		return nil, fmt.Errorf("%w: H=%d below metric minimum %d", ErrBadArg, h, metric.MinWindow())
	}
	var tuples []Tuple
	var inferErr error
	err := s.Windows(h, func(w timeseries.Window, next timeseries.Point) bool {
		if next.T < tLo || next.T > tHi {
			return true
		}
		inf, err := metric.Infer(w.Values)
		if err != nil {
			inferErr = err
			return false
		}
		tuples = append(tuples, Tuple{T: next.T, RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist})
		return true
	})
	if err != nil {
		return nil, err
	}
	if inferErr != nil {
		return nil, inferErr
	}
	return tuples, nil
}

// Builder evaluates probability value generation queries over stored tuples.
type Builder struct {
	Omega Omega
	// Cache, when non-nil, serves Gaussian tuples whose sigma falls in the
	// cache's range; other tuples fall back to direct computation.
	Cache *sigmacache.Cache
	// Parallelism is the number of worker goroutines Generate fans tuple
	// windows out across. The zero value (and 1) builds sequentially, so
	// existing construction sites keep their behaviour; layers that want
	// "all cores" resolve GOMAXPROCS themselves (see core.Config). The
	// result is identical at every setting.
	Parallelism int
}

// NewBuilder validates omega and returns a Builder without a cache.
func NewBuilder(omega Omega) (*Builder, error) {
	if err := omega.Validate(); err != nil {
		return nil, err
	}
	return &Builder{Omega: omega}, nil
}

// AttachCache builds a sigma-cache sized for the given tuples under the
// provided constraints and attaches it to the builder. It returns the cache
// so callers can inspect its statistics.
func (b *Builder) AttachCache(tuples []Tuple, distanceConstraint float64, memoryConstraint int) (*sigmacache.Cache, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tp := range tuples {
		if tp.Sigma > 0 {
			if tp.Sigma < lo {
				lo = tp.Sigma
			}
			if tp.Sigma > hi {
				hi = tp.Sigma
			}
		}
	}
	if math.IsInf(lo, 1) {
		return nil, ErrNoTuples
	}
	cache, err := sigmacache.New(sigmacache.Config{
		Delta:              b.Omega.Delta,
		N:                  b.Omega.N,
		DistanceConstraint: distanceConstraint,
		MemoryConstraint:   memoryConstraint,
	}, lo, hi)
	if err != nil {
		return nil, err
	}
	b.Cache = cache
	return cache, nil
}

// Generate evaluates the probability value generation query for every tuple,
// producing n rows per tuple. Rows are written into one pre-sized backing
// array: the per-tuple cost is pure computation, so the sigma-cache's saving
// (CDF evaluations) shows up undiluted, as in the paper's Fig. 14a.
//
// With Parallelism > 1 the tuple windows are processed by a worker pool;
// each worker writes a disjoint span of the row array, so the rows come out
// in tuple order and are identical to a sequential build.
func (b *Builder) Generate(tuples []Tuple) (*View, error) {
	if err := b.Omega.Validate(); err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, ErrNoTuples
	}
	rows := make([]Row, len(tuples)*b.Omega.N)
	workers := b.workers(len(tuples))
	if workers <= 1 {
		if err := b.generateSpan(tuples, rows, 0, len(tuples)); err != nil {
			return nil, err
		}
	} else if err := b.generateParallel(tuples, rows, workers); err != nil {
		return nil, err
	}
	return &View{Omega: b.Omega, Rows: rows}, nil
}

// windowSize is the number of tuples a worker claims at a time: small
// enough to balance the bimodal per-tuple cost (cache hit vs naive CDF
// evaluation), large enough to keep cursor traffic negligible.
const windowSize = 64

// workers resolves the effective worker count for a tuple batch: never more
// than there are windows to claim, never less than one.
func (b *Builder) workers(tuples int) int {
	w := b.Parallelism
	if windows := (tuples + windowSize - 1) / windowSize; w > windows {
		w = windows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// generateSpan fills rows for tuples[lo:hi]; rows is the full backing array.
func (b *Builder) generateSpan(tuples []Tuple, rows []Row, lo, hi int) error {
	n := b.Omega.N
	for i := lo; i < hi; i++ {
		if err := b.generateInto(tuples[i], rows[i*n:(i+1)*n]); err != nil {
			return err
		}
	}
	return nil
}

// generateParallel fans fixed-size tuple windows out across workers. Workers
// claim windows from an atomic cursor (cheap dynamic load balancing — the
// naive path is much more expensive per tuple than a cache hit), and every
// window maps to a fixed span of the row array, so the merge is a no-op and
// the output order is deterministic.
func (b *Builder) generateParallel(tuples []Tuple, rows []Row, workers int) error {
	windows := (len(tuples) + windowSize - 1) / windowSize

	var (
		cursor  atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				win := int(cursor.Add(1)) - 1
				if win >= windows {
					return
				}
				lo := win * windowSize
				hi := lo + windowSize
				if hi > len(tuples) {
					hi = len(tuples)
				}
				if err := b.generateSpan(tuples, rows, lo, hi); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return firstEr
	}
	return nil
}

// GenerateOne evaluates Eq. (9) for a single tuple.
func (b *Builder) GenerateOne(tp Tuple) ([]Row, error) {
	if err := b.Omega.Validate(); err != nil {
		return nil, err
	}
	rows := make([]Row, b.Omega.N)
	if err := b.generateInto(tp, rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// generateInto fills out (length Omega.N) with the Eq. (9) probabilities of
// one tuple, preferring the sigma-cache for Gaussian tuples.
func (b *Builder) generateInto(tp Tuple, out []Row) error {
	n := b.Omega.N
	delta := b.Omega.Delta
	// Cache path: Gaussian tuples only (the grid encodes a zero-mean
	// Gaussian; the mean shift argument of Fig. 8 makes rho identical).
	if b.Cache != nil {
		if _, isNormal := tp.Dist.(dist.Normal); isNormal || tp.Dist == nil {
			if e, ok := b.Cache.Lookup(tp.Sigma); ok {
				for i := 0; i < n; i++ {
					lambda := i - n/2
					lo := tp.RHat + float64(lambda)*delta
					out[i] = Row{T: tp.T, Lambda: lambda, Lo: lo, Hi: lo + delta,
						Prob: e.CDF[i+1] - e.CDF[i]}
				}
				return nil
			}
		}
	}
	// Naive path: evaluate the distribution directly.
	d := tp.Dist
	if d == nil {
		nd, err := dist.NewNormal(tp.RHat, tp.Sigma)
		if err != nil {
			return err
		}
		d = nd
	}
	for i := 0; i < n; i++ {
		lambda := i - n/2
		lo := tp.RHat + float64(lambda)*delta
		hi := lo + delta
		out[i] = Row{T: tp.T, Lambda: lambda, Lo: lo, Hi: hi, Prob: d.Prob(lo, hi)}
	}
	return nil
}

// WriteCSV writes the view as "t,lambda,lo,hi,prob" rows with a header.
func (v *View) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "lambda", "lo", "hi", "prob"}); err != nil {
		return err
	}
	for _, r := range v.Rows {
		rec := []string{
			strconv.FormatInt(r.T, 10),
			strconv.Itoa(r.Lambda),
			strconv.FormatFloat(r.Lo, 'g', -1, 64),
			strconv.FormatFloat(r.Hi, 'g', -1, 64),
			strconv.FormatFloat(r.Prob, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RowsAt returns the rows of the view for a single timestamp, in lambda
// order, or nil if the timestamp is absent.
func (v *View) RowsAt(t int64) []Row {
	var out []Row
	for _, r := range v.Rows {
		if r.T == t {
			out = append(out, r)
		}
	}
	return out
}

// OnlineBuilder maintains a sliding window over a live stream and emits view
// rows for every new raw value (the online mode of Section II-A).
type OnlineBuilder struct {
	metric  density.Metric
	h       int
	builder *Builder
	window  []float64
	lastT   int64
	started bool
}

// NewOnlineBuilder primes an online builder with warm-up values (length h).
// The optional cache must be attached to b beforehand when desired; sigma
// values outside its range fall back to direct computation.
func NewOnlineBuilder(metric density.Metric, h int, b *Builder, warmup []float64) (*OnlineBuilder, error) {
	if metric == nil || b == nil {
		return nil, fmt.Errorf("%w: nil metric or builder", ErrBadArg)
	}
	if h < metric.MinWindow() {
		return nil, fmt.Errorf("%w: H=%d below metric minimum %d", ErrBadArg, h, metric.MinWindow())
	}
	if len(warmup) != h {
		return nil, fmt.Errorf("%w: warmup length %d != H %d", ErrBadArg, len(warmup), h)
	}
	ob := &OnlineBuilder{metric: metric, h: h, builder: b, window: make([]float64, h)}
	copy(ob.window, warmup)
	return ob, nil
}

// Step ingests the raw value at time t and returns the view rows generated
// for it. Timestamps must be strictly increasing.
func (ob *OnlineBuilder) Step(t int64, rt float64) ([]Row, error) {
	rows, commit, err := ob.Prepare(t, rt)
	if err != nil {
		return nil, err
	}
	commit()
	return rows, nil
}

// Prepare computes the view rows for the raw value at time t without
// mutating the builder: inference and row generation run on the current
// window, and the returned commit pushes the value and advances the
// timestamp watermark. Discarding commit abandons the step. Callers that
// must coordinate the step with other fallible state changes (e.g. storing
// the raw value) prepare first and commit only once everything else has
// succeeded.
func (ob *OnlineBuilder) Prepare(t int64, rt float64) ([]Row, func(), error) {
	if ob.started && t <= ob.lastT {
		return nil, nil, fmt.Errorf("%w: non-increasing timestamp %d", ErrBadArg, t)
	}
	mspan := obs.StartSpan(metModelStage)
	inf, err := ob.metric.Infer(ob.window)
	mspan.End()
	if err != nil {
		return nil, nil, err
	}
	vspan := obs.StartSpan(metViewStage)
	rows, err := ob.builder.GenerateOne(Tuple{T: t, RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist})
	vspan.End()
	if err != nil {
		return nil, nil, err
	}
	return rows, func() {
		copy(ob.window, ob.window[1:])
		ob.window[ob.h-1] = rt
		ob.lastT = t
		ob.started = true
	}, nil
}
