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
// with similar sigma, Section VI-A/B). Offline (time-interval query) mode
// runs Generate over the tuples of a range; online (streaming) mode, in
// internal/core, infers one window per step and calls GenerateOne.
//
// TuplesFromSeries is the module's one loop from a series to its sliding
// windows to their inferences: CREATE VIEW, the PIT of Eq. 1
// (internal/quality) and the Fig. 11 timing all run it. It spends nearly
// all of its time in density inference (an ARMA-GARCH fit per window), so
// it infers windows on a worker pool, each tuple in its own slot of one
// pre-sized array; the output is byte-identical to a sequential run
// regardless of scheduling.
// Generate is a plain sequential loop: it costs well under a microsecond
// per tuple. The sigma-cache is read-only after construction, so builders
// may share one from any number of goroutines.
package view

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/density"
	"repro/internal/dist"
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
// and returns one Tuple per inferred time step whose timestamp lies in
// [tLo, tHi]. This is the inference stage that precedes view generation,
// and nearly all of a build's time. The tuple of series index i is
// inferred from the window values[i-h:i] and carries times[i].
//
// stride > 1 keeps every stride-th time step of the range, starting from
// the first (the PIT sweeps of Section II-B); stride <= 1 keeps all.
//
// Windows are inferred on up to workers goroutines (<= 1 runs inline).
// Every Metric.Infer is a pure function of its window, and every window's
// tuple has its own output slot, so the result is identical at every
// worker count. On failure the error of the earliest failing window is
// returned: the same error a sequential run stops at.
func TuplesFromSeries(s *timeseries.Series, metric density.Metric, h int, tLo, tHi int64, stride, workers int) ([]Tuple, error) {
	if metric == nil {
		return nil, fmt.Errorf("%w: nil metric", ErrBadArg)
	}
	if h < metric.MinWindow() {
		return nil, fmt.Errorf("%w: H=%d below metric minimum %d", ErrBadArg, h, metric.MinWindow())
	}
	if h <= 0 || h >= s.Len() {
		return nil, fmt.Errorf("%w: H=%d len=%d", timeseries.ErrBadWindow, h, s.Len())
	}
	if stride < 1 {
		stride = 1
	}
	// Tuple k predicts point first+k*stride from the h values before it.
	times, values := s.Times(), s.Values()
	first := h + sort.Search(len(times)-h, func(i int) bool { return times[h+i] >= tLo })
	end := h + sort.Search(len(times)-h, func(i int) bool { return times[h+i] > tHi })
	if first >= end {
		return nil, nil
	}
	tuples := make([]Tuple, (end-first+stride-1)/stride)
	errs := make([]error, len(tuples))
	var (
		cursor atomic.Int64 // next unclaimed tuple
		failed atomic.Int64 // lowest failing tuple; len(tuples) = none
	)
	failed.Store(int64(len(tuples)))
	infer := func() {
		window := make([]float64, h)
		for {
			k := int(cursor.Add(1)) - 1
			// Past the end, or past a failed window: a sequential run
			// would never have reached it.
			if k >= len(tuples) || int64(k) > failed.Load() {
				return
			}
			i := first + k*stride
			copy(window, values[i-h:i])
			inf, err := metric.Infer(window)
			if err == nil {
				tuples[k] = Tuple{T: times[i], RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist}
				continue
			}
			errs[k] = err
			for {
				cur := failed.Load()
				if int64(k) >= cur || failed.CompareAndSwap(cur, int64(k)) {
					break
				}
			}
			return
		}
	}
	if workers > len(tuples) {
		workers = len(tuples)
	}
	if workers <= 1 {
		infer()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				infer()
			}()
		}
		wg.Wait()
	}
	if k := failed.Load(); int(k) < len(tuples) {
		return nil, errs[k]
	}
	return tuples, nil
}

// Builder evaluates probability value generation queries over stored tuples.
type Builder struct {
	Omega Omega
	// Cache, when non-nil, serves Gaussian tuples whose sigma falls in the
	// cache's range; other tuples fall back to direct computation.
	Cache *sigmacache.Cache
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
func (b *Builder) Generate(tuples []Tuple) (*View, error) {
	if err := b.Omega.Validate(); err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, ErrNoTuples
	}
	n := b.Omega.N
	rows := make([]Row, len(tuples)*n)
	for i, tp := range tuples {
		if err := b.generateInto(tp, rows[i*n:(i+1)*n]); err != nil {
			return nil, err
		}
	}
	return &View{Omega: b.Omega, Rows: rows}, nil
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
