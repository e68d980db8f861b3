// Package repro is a from-scratch Go implementation of "Creating
// Probabilistic Databases from Imprecise Time-Series Data" (Sathe, Jeung,
// Aberer; ICDE 2011): an end-to-end pipeline that turns imprecise time
// series into tuple-level probabilistic databases.
//
// The pipeline has two halves. Dynamic density metrics infer a
// time-dependent probability density p_t(R_t) for every raw value from a
// sliding window — uniform/variable thresholding, ARMA-GARCH,
// Kalman-GARCH, and the error-hardened C-GARCH. The Omega-view builder then
// evaluates the probability value generation query, materialising for each
// tuple the probabilities of n ranges of width Delta around the expected
// true value; a sigma-cache of pre-computed Gaussian CDF grids (with
// Hellinger-distance and memory guarantees) accelerates generation by an
// order of magnitude.
//
// Quick start:
//
//	engine := repro.NewEngine()
//	_ = engine.RegisterSeries("raw_values", repro.FromValues(temps))
//	res, err := engine.Exec(`CREATE VIEW prob_view AS DENSITY r OVER t
//	    OMEGA delta=0.5, n=8 WINDOW 90 CACHE DISTANCE 0.01
//	    FROM raw_values WHERE t >= 100 AND t <= 200`)
//
// The resulting view rows feed the probabilistic query helpers (RangeProb,
// TopK, BucketQuery, ...) that answer questions like the paper's "in which
// room is Alice?" example. See the examples/ directory for runnable
// programs and DESIGN.md for the architecture.
package repro

import (
	"io"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/density"
	"repro/internal/durable"
	"repro/internal/probdb"
	"repro/internal/quality"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// Re-exported core types. The facade keeps downstream imports to a single
// package; the internal packages stay free to evolve.
type (
	// Series is an ordered sequence of timestamped raw values.
	Series = timeseries.Series
	// Point is one timestamped raw value r_t.
	Point = timeseries.Point
	// Metric is a dynamic density metric (Definition 1 of the paper).
	Metric = density.Metric
	// Inference is a metric's output: r̂_t, p_t(R_t), kappa-scaled bounds.
	Inference = density.Inference
	// Engine is the framework of Fig. 2: catalog + metrics + view builder.
	Engine = core.Engine
	// EngineConfig tunes an Engine (view-build parallelism, ...).
	EngineConfig = core.Config
	// StreamConfig configures the online (streaming) mode.
	StreamConfig = core.StreamConfig
	// SigmaRange is the expected volatility band for an online sigma-cache.
	SigmaRange = core.SigmaRange
	// Stream is a live online pipeline.
	Stream = core.Stream
	// Omega holds the view parameters Delta and n (Section VI).
	Omega = view.Omega
	// Row is one probabilistic view row: P(true value in [Lo, Hi]) at T.
	Row = view.Row
	// ProbTable is a materialised probabilistic view.
	ProbTable = storage.ProbTable
	// Bucket is a named value interval for bucketed queries (Fig. 1 rooms).
	Bucket = probdb.Bucket
	// BucketProb is a bucket with its probability.
	BucketProb = probdb.BucketProb
	// QualityResult reports a density-distance evaluation (Section II-B).
	QualityResult = quality.Result
	// RecoveryStats reports what (*Engine).RecoveryStats replayed when a
	// durable engine opened its data directory: segments opened, WAL files
	// and records replayed, whether a torn tail was truncated, and how long
	// recovery took.
	RecoveryStats = durable.RecoveryStats
	// Server is the HTTP/JSON serving subsystem over one Engine (tspdbd).
	Server = server.Server
	// ServerConfig tunes a Server (build/batch limits, logging).
	ServerConfig = server.Config
	// ServerClient is a thin typed client for a running tspdbd.
	ServerClient = server.Client
)

// NewEngine creates an empty probabilistic-database engine whose view
// builds infer windows in parallel across all cores.
func NewEngine() *Engine { return core.NewEngine() }

// NewEngineWith creates an empty engine with an explicit configuration,
// e.g. EngineConfig{Parallelism: 1} for strictly sequential view builds.
// The engine is purely in-memory; for durability use OpenEngine.
func NewEngineWith(cfg EngineConfig) *Engine { return core.NewEngineWith(cfg) }

// OpenEngine creates an engine honouring the full configuration. With
// EngineConfig.DataDir set, the catalog is recovered from that directory
// and every committed mutation is write-ahead logged before it is
// acknowledged; call (*Engine).Close to flush and release it.
func OpenEngine(cfg EngineConfig) (*Engine, error) { return core.OpenEngine(cfg) }

// NewServer wraps an engine in the HTTP/JSON serving subsystem. Serve it
// with (*Server).Run for graceful shutdown, or mount it on any http.Server —
// it implements http.Handler.
func NewServer(e *Engine, cfg ServerConfig) *Server { return server.New(e, cfg) }

// NewServerClient returns a typed client for a tspdbd base URL, e.g.
// "http://localhost:8080".
func NewServerClient(base string) *ServerClient { return server.NewClient(base) }

// NewSeries creates a Series from points with strictly increasing
// timestamps.
func NewSeries(pts []Point) (*Series, error) { return timeseries.New(pts) }

// FromValues builds a Series with timestamps 1..len(vs).
func FromValues(vs []float64) *Series { return timeseries.FromValues(vs) }

// ReadSeriesCSV parses a Series from "t,value" CSV rows.
func ReadSeriesCSV(r io.Reader) (*Series, error) { return timeseries.ReadCSV(r) }

// NewUniformThresholding returns the uniform thresholding metric: ARMA(p,q)
// point forecast with a user-defined uncertainty threshold u (Section III).
func NewUniformThresholding(p, q int, u float64) (Metric, error) {
	return density.NewUniformThresholding(p, q, u)
}

// NewVariableThresholding returns the variable thresholding metric: ARMA(p,q)
// point forecast with the window's sample variance (Section III, Eq. 3).
func NewVariableThresholding(p, q int) (Metric, error) {
	return density.NewVariableThresholding(p, q)
}

// NewARMAGARCH returns the paper's main metric (Algorithm 1): ARMA(p,q)
// conditional mean with GARCH(1,1) conditional variance and kappa = 3.
func NewARMAGARCH(p, q int) (Metric, error) { return density.NewARMAGARCH(p, q) }

// NewKalmanGARCH returns the Kalman-GARCH metric: EM-estimated local-level
// Kalman filter mean with GARCH(1,1) variance (Section IV).
func NewKalmanGARCH() Metric { return density.NewKalmanGARCH() }

// NewCGARCH returns the C-GARCH metric (Section V): ARMA(p,q)-GARCH(1,1)
// hardened against erroneous values via the Successive Variance Reduction
// filter with variance threshold svMax (learn it with LearnSVMax).
func NewCGARCH(p, q int, svMax float64) (Metric, error) {
	inner, err := density.NewARMAGARCH(p, q)
	if err != nil {
		return nil, err
	}
	return &clean.Metric{Inner: inner, SVMax: svMax}, nil
}

// LearnSVMax estimates the SVR filter's variance threshold from a clean
// sample: the maximum sample variance over sliding windows of size ocmax
// (Section V-B).
func LearnSVMax(cleanSample []float64, ocmax int) (float64, error) {
	return clean.LearnSVMax(cleanSample, ocmax)
}

// EvaluateMetric computes the density distance (Section II-B) of a metric on
// a series with sliding windows of length h: the distance between the
// probability-integral-transform CDF and the uniform CDF. Lower is better;
// stride > 1 subsamples windows for speed.
func EvaluateMetric(s *Series, m Metric, h, stride int) (*QualityResult, error) {
	return quality.Evaluate(s, m, h, stride)
}

// RangeProb returns P(lo < R <= hi) for the view rows of one tuple.
func RangeProb(rows []Row, lo, hi float64) (float64, error) {
	return probdb.RangeProb(rows, lo, hi)
}

// Threshold returns the view rows with probability at least p.
func Threshold(rows []Row, p float64) ([]Row, error) { return probdb.Threshold(rows, p) }

// TopK returns the k most probable ranges of one tuple.
func TopK(rows []Row, k int) ([]Row, error) { return probdb.TopK(rows, k) }

// Expected returns the expected value implied by one tuple's view rows.
func Expected(rows []Row) (float64, error) { return probdb.Expected(rows) }

// BucketQuery returns the probability of each named bucket, descending —
// the paper's "probability that Alice is in each room" query (Fig. 1).
func BucketQuery(rows []Row, buckets []Bucket) ([]BucketProb, error) {
	return probdb.BucketQuery(rows, buckets)
}

// MostLikelyBucket returns the highest-probability bucket.
func MostLikelyBucket(rows []Row, buckets []Bucket) (BucketProb, error) {
	return probdb.MostLikelyBucket(rows, buckets)
}

// Quantile returns the q-quantile of one tuple's bucketed distribution.
func Quantile(rows []Row, q float64) (float64, error) { return probdb.Quantile(rows, q) }

// CredibleInterval returns the central interval covering fraction level of
// one tuple's probability mass.
func CredibleInterval(rows []Row, level float64) (lo, hi float64, err error) {
	return probdb.CredibleInterval(rows, level)
}

// ExpectedSeries returns the expected true value at every view timestamp in
// [tLo, tHi].
func ExpectedSeries(p *ProbTable, tLo, tHi int64) ([]probdb.TimeSeriesPoint, error) {
	return probdb.ExpectedSeries(p, tLo, tHi)
}

// AnyInRange returns P(at least one tuple's value in (lo, hi]) over
// [tLo, tHi], under tuple independence.
func AnyInRange(p *ProbTable, tLo, tHi int64, lo, hi float64) (float64, error) {
	return probdb.AnyInRange(p, tLo, tHi, lo, hi)
}

// AllInRange returns P(every tuple's value in (lo, hi]) over [tLo, tHi],
// under tuple independence.
func AllInRange(p *ProbTable, tLo, tHi int64, lo, hi float64) (float64, error) {
	return probdb.AllInRange(p, tLo, tHi, lo, hi)
}

// ExpectedCount returns the expected number of tuples in [tLo, tHi] whose
// value lies in (lo, hi].
func ExpectedCount(p *ProbTable, tLo, tHi int64, lo, hi float64) (float64, error) {
	return probdb.ExpectedCount(p, tLo, tHi, lo, hi)
}

// CountAtLeast returns P(at least k tuples in [tLo, tHi] have their value in
// (lo, hi]) via the exact Poisson-binomial distribution.
func CountAtLeast(p *ProbTable, tLo, tHi int64, lo, hi float64, k int) (float64, error) {
	return probdb.CountAtLeast(p, tLo, tHi, lo, hi, k)
}
