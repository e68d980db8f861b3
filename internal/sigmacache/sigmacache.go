// Package sigmacache implements the sigma-cache of Section VI: a cache of
// pre-computed Gaussian CDF grids, keyed by standard deviation, that the
// Omega-view builder reuses across tuples when generating probability values.
//
// The key insight (Fig. 8 of the paper) is that the probabilities
// rho_lambda = P_t(r̂_t+(lambda+1)Delta) - P_t(r̂_t+lambda*Delta) depend only
// on sigmâ_t, not on r̂_t: the Omega ranges are centred on r̂_t, so a mean
// shift maps any tuple onto a zero-mean Gaussian. Two tuples with similar
// sigma can therefore share one pre-computed grid, with approximation error
// controlled by the Hellinger distance (Eq. 10).
//
// Theorem 1 (distance constraint): given an error tolerance H', consecutive
// cached sigmas may differ by at most the ratio threshold d_s of Eq. (11).
// Theorem 2 (memory constraint): to store at most Q' distributions over the
// sigma range [min, max] with ratio D_s = max/min, choose d_s >= D_s^(1/Q').
//
// The grids form one immutable ladder: New fills a slice with one grid per
// rung and nothing writes it again. A lookup addresses its rung in O(1)
// arithmetic (the ladder is geometric, so the rung index is a logarithm)
// and reads the slice without a lock; only the hit and miss counters are
// written, atomically. The cache is therefore safe for any number of
// concurrent readers, and Stats may be read while they run.
package sigmacache

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/mathx"
)

// Errors reported by the cache.
var (
	ErrBadConfig = errors.New("sigmacache: invalid configuration")
	ErrBadRange  = errors.New("sigmacache: invalid sigma range")
)

// Config parameterises the cache.
type Config struct {
	// Delta is the Omega range width (view parameter).
	Delta float64
	// N is the number of Omega ranges (view parameter; must be positive and
	// even). The grid holds N+1 CDF values at offsets lambda*Delta,
	// lambda = -N/2 .. N/2.
	N int
	// DistanceConstraint is the Hellinger tolerance H' in (0,1). If set,
	// the ratio threshold comes from Theorem 1 (Eq. 11).
	DistanceConstraint float64
	// MemoryConstraint is the maximum number of cached distributions Q'.
	// If set (and DistanceConstraint is zero), the ratio threshold comes
	// from Theorem 2 (Eq. 14). If both are set, the larger (coarser) ratio
	// wins so that both constraints hold... the memory bound is hard while
	// the distance bound may then be violated, mirroring the paper's
	// trade-off discussion.
	MemoryConstraint int
}

// Entry is one cached distribution: the CDF grid of N(0, Sigma^2) evaluated
// at the Omega offsets lambda*Delta.
type Entry struct {
	Sigma float64
	// CDF[i] = P(X <= (i - N/2) * Delta) for X ~ N(0, Sigma^2), i = 0..N.
	CDF []float64
}

// Stats reports cache effectiveness.
type Stats struct {
	Hits    int
	Misses  int
	Entries int
	// ApproxBytes estimates the resident size of the cached grids
	// (entries * (N+1) float64 values plus per-entry key overhead).
	ApproxBytes int
}

// Cache is the sigma-cache.
type Cache struct {
	cfg      Config
	ds       float64 // ratio threshold actually in force
	minSigma float64
	maxSigma float64

	logMin float64 // log(minSigma), for O(1) rung addressing
	logDs  float64 // log(ds)
	rungs  int     // highest rung index; ladder holds rungs+1 entries

	ladder []*Entry // rung q at index q, ascending sigma; read-only after New

	hits   atomic.Int64
	misses atomic.Int64
}

// New builds a cache for sigmas in [minSigma, maxSigma] (the extremes of
// sigmâ_t over the tuples matching the query's WHERE clause, Eq. 12),
// pre-populating every ladder rung.
func New(cfg Config, minSigma, maxSigma float64) (*Cache, error) {
	if cfg.Delta <= 0 || math.IsNaN(cfg.Delta) {
		return nil, fmt.Errorf("%w: delta=%v", ErrBadConfig, cfg.Delta)
	}
	if cfg.N <= 0 || cfg.N%2 != 0 {
		return nil, fmt.Errorf("%w: n=%d (must be positive and even)", ErrBadConfig, cfg.N)
	}
	if cfg.DistanceConstraint == 0 && cfg.MemoryConstraint == 0 {
		return nil, fmt.Errorf("%w: need a distance or memory constraint", ErrBadConfig)
	}
	if cfg.DistanceConstraint < 0 || cfg.DistanceConstraint >= 1 {
		return nil, fmt.Errorf("%w: distance constraint %v", ErrBadConfig, cfg.DistanceConstraint)
	}
	if cfg.MemoryConstraint < 0 {
		return nil, fmt.Errorf("%w: memory constraint %d", ErrBadConfig, cfg.MemoryConstraint)
	}
	if !(minSigma > 0) || !(maxSigma >= minSigma) || math.IsInf(maxSigma, 0) {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadRange, minSigma, maxSigma)
	}

	// D_s = max(sigma)/min(sigma) (Eq. 12).
	ratioSpan := maxSigma / minSigma

	// Resolve the ratio threshold d_s.
	var dsDistance, dsMemory float64
	var err error
	if cfg.DistanceConstraint > 0 {
		dsDistance, err = mathx.RatioThresholdForDistance(cfg.DistanceConstraint)
		if err != nil {
			return nil, err
		}
	}
	if cfg.MemoryConstraint > 0 {
		// We cache rungs q = 0..ceil(Q), i.e. ceil(Q)+1 entries (the q=0 rung
		// at min(sigma) guarantees every in-range sigma has a floor). To
		// store at most Q' entries we therefore apply Theorem 2 with Q'-1
		// intervals. Q' = 1 has no interval to spend: it keeps d_s = D_s
		// and the rung cap below leaves rung 0 alone.
		intervals := cfg.MemoryConstraint - 1
		if intervals < 1 {
			intervals = 1
		}
		dsMemory, err = mathx.RatioThresholdForMemory(ratioSpan, intervals)
		if err != nil {
			return nil, err
		}
	}
	ds := math.Max(dsDistance, dsMemory)
	if ds <= 1 {
		// Degenerate range (max == min) or an extremely tight constraint:
		// a single rung suffices; use a nominal ratio to terminate the ladder.
		ds = math.Nextafter(1, 2)
	}

	// Q such that max = d_s^Q * min (Eq. 13); cache rungs q = 0..ceil(Q).
	var rungs int
	if maxSigma == minSigma || ds == math.Nextafter(1, 2) {
		rungs = 0
	} else {
		q := math.Log(ratioSpan) / math.Log(ds)
		rungs = int(math.Ceil(q - 1e-12))
	}
	if cfg.MemoryConstraint > 0 && rungs > cfg.MemoryConstraint-1 {
		// The memory bound is hard. Every in-range sigma still hits: Lookup
		// floors it onto the highest rung kept.
		rungs = cfg.MemoryConstraint - 1
	}

	c := &Cache{
		cfg: cfg, ds: ds, minSigma: minSigma, maxSigma: maxSigma,
		logMin: math.Log(minSigma), logDs: math.Log(ds),
		rungs:  rungs,
		ladder: make([]*Entry, rungs+1),
	}
	for q := range c.ladder {
		c.ladder[q] = c.computeEntry(c.rungSigma(q))
	}
	return c, nil
}

// rungSigma returns the sigma of ladder rung q. Every caller uses this one
// expression, so recomputed keys compare exactly equal to stored ones.
//
//tspdb:kernel
func (c *Cache) rungSigma(q int) float64 {
	return c.minSigma * math.Pow(c.ds, float64(q))
}

// computeEntry evaluates the zero-mean Gaussian CDF grid for sigma.
func (c *Cache) computeEntry(sigma float64) *Entry {
	n := c.cfg.N
	grid := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x := (float64(i) - float64(n)/2) * c.cfg.Delta
		grid[i] = mathx.NormCDF(x, 0, sigma)
	}
	return &Entry{Sigma: sigma, CDF: grid}
}

// Lookup returns the cached grid approximating N(0, sigma^2): the ladder
// rung with the largest key <= sigma (Theorem 1 requires the cached sigma to
// be the smaller one). The boolean reports a cache hit; on a miss (sigma
// outside the covered range) the caller must compute directly.
//
// Lookup is safe for concurrent use: rung addressing is pure arithmetic, the
// ladder is read-only, and the counters are atomic.
//
//tspdb:kernel
func (c *Cache) Lookup(sigma float64) (*Entry, bool) {
	if sigma < c.minSigma || sigma > c.maxSigma*(1+1e-12) || math.IsNaN(sigma) {
		c.misses.Add(1)
		return nil, false
	}
	// The ladder is geometric, so the floor rung is a logarithm away; the
	// two correction loops absorb floating-point error at rung boundaries.
	q := int(math.Floor((math.Log(sigma) - c.logMin) / c.logDs))
	if q < 0 {
		q = 0
	}
	if q > c.rungs {
		q = c.rungs
	}
	for q+1 <= c.rungs && c.rungSigma(q+1) <= sigma {
		q++
	}
	for q > 0 && c.rungSigma(q) > sigma {
		q--
	}
	c.hits.Add(1)
	return c.ladder[q], true
}

// Stats returns hit/miss counts and the approximate resident size.
func (c *Cache) Stats() Stats {
	const keyOverhead = 16 // entry pointer + Sigma key per rung
	entries := c.rungs + 1
	return Stats{
		Hits:        int(c.hits.Load()),
		Misses:      int(c.misses.Load()),
		Entries:     entries,
		ApproxBytes: entries * ((c.cfg.N+1)*8 + keyOverhead),
	}
}
