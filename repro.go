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
// The resulting view rows feed the query helpers (TopK, Expected,
// BucketQuery, MostLikelyBucket) behind the paper's "in which room is
// Alice?" example; window aggregates are SQL. See the examples/ directory
// for runnable programs and DESIGN.md for the architecture.
package repro

import (
	"io"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/probdb"
	"repro/internal/server"
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
	// Engine is the framework of Fig. 2: catalog + metrics + view builder.
	Engine = core.Engine
	// EngineConfig tunes an Engine (view-build parallelism, ...).
	EngineConfig = core.Config
	// StreamConfig configures the online (streaming) mode.
	StreamConfig = core.StreamConfig
	// SigmaRange is the expected volatility band for an online sigma-cache.
	SigmaRange = core.SigmaRange
	// Omega holds the view parameters Delta and n (Section VI).
	Omega = view.Omega
	// Row is one probabilistic view row: P(true value in [Lo, Hi]) at T.
	Row = view.Row
	// Bucket is a named value interval for bucketed queries (Fig. 1 rooms).
	Bucket = probdb.Bucket
	// BucketProb is a bucket with its probability.
	BucketProb = probdb.BucketProb
	// Server is the HTTP/JSON serving subsystem over one Engine (tspdbd).
	Server = server.Server
	// ServerConfig tunes a Server (build/batch limits, logging).
	ServerConfig = server.Config
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

// FromValues builds a Series with timestamps 1..len(vs).
func FromValues(vs []float64) *Series { return timeseries.FromValues(vs) }

// ReadSeriesCSV parses a Series from "t,value" CSV rows.
func ReadSeriesCSV(r io.Reader) (*Series, error) { return timeseries.ReadCSV(r) }

// LearnSVMax estimates the SVR filter's variance threshold from a clean
// sample: the maximum sample variance over sliding windows of size ocmax
// (Section V-B).
func LearnSVMax(cleanSample []float64, ocmax int) (float64, error) {
	return clean.LearnSVMax(cleanSample, ocmax)
}

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
