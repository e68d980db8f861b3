// Package core wires the framework of Fig. 2 together: raw-value tables in
// the storage catalog, dynamic density metrics, the Omega-view builder with
// its sigma-cache, and the SQL-like query surface. It is the integration
// point the public repro package exposes.
//
// Two operating modes follow Section II-A:
//
//   - Offline: Exec runs a probabilistic view generation query (Fig. 7
//     syntax) over stored raw values and materialises a prob_view table.
//   - Online: OpenStream attaches a metric to a raw table; every appended
//     value yields its view rows immediately and extends the materialised
//     view incrementally.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clean"
	"repro/internal/density"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sigmacache"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// Errors reported by the engine.
var (
	ErrBadArg = errors.New("core: invalid argument")
	// ErrStreamExists reports an attempt to open a second online stream on a
	// source table that already has one.
	ErrStreamExists = errors.New("core: stream already open")
	// ErrStreamNotFound reports a lookup of a stream that was never opened
	// (or has been closed).
	ErrStreamNotFound = errors.New("core: no open stream")
	// ErrOutOfOrder reports an online Step whose timestamp does not exceed
	// the stream's last ingested timestamp. It is a conflict with already
	// accepted state, not a malformed request, so the server maps it to 409
	// (where ErrBadArg maps to 400) and clients can retry with a later
	// timestamp instead of fixing the payload.
	ErrOutOfOrder = errors.New("core: out-of-order timestamp")
)

// Config tunes an Engine.
type Config struct {
	// Parallelism is the worker count for offline density inference (the
	// CREATE VIEW build) and for the chunked read kernels behind EXPECTED,
	// PROB and COUNT: 1 runs sequentially, 0 selects GOMAXPROCS. Results
	// are identical at every setting; only wall-clock time changes.
	Parallelism int

	// DataDir, when non-empty, makes the engine durable: OpenEngine
	// recovers the catalog from this directory and every committed
	// mutation is write-ahead logged before it is acknowledged
	// (internal/durable). Empty keeps the catalog purely in memory.
	DataDir string
	// Fsync syncs the WAL on every commit (durable engines only): each
	// acknowledged mutation survives power loss, not just process death.
	Fsync bool
	// WALFileBytes is the WAL rotation threshold (0: wal default).
	WALFileBytes int64
	// CheckpointBytes triggers a background checkpoint once this many WAL
	// record bytes accumulate. 0 selects the durable default; negative
	// disables automatic checkpoints.
	CheckpointBytes int64
}

// Engine is the framework instance. All methods are safe for concurrent
// use; online streams additionally serialise their own Step calls, so an
// Engine can sit directly behind a network server.
type Engine struct {
	db    *storage.DB
	cfg   Config
	store *durable.Store // nil for a purely in-memory engine

	mu      sync.Mutex
	streams map[string]*Stream // open streams, keyed by source table
	// execCache accumulates hit/miss counters of the short-lived caches
	// that Exec'd CREATE VIEW ... CACHE statements attach. Only the
	// counters are summed: entry counts and byte sizes are gauges of
	// resident caches, and these are discarded after each build.
	execCache sigmacache.Stats
}

// NewEngine creates an empty engine with the default configuration
// (offline inference and read kernels across all cores).
func NewEngine() *Engine {
	return NewEngineWith(Config{})
}

// NewEngineWith creates an empty engine with an explicit configuration.
// Config.DataDir is ignored here — durability needs the recovery pass of
// OpenEngine.
func NewEngineWith(cfg Config) *Engine {
	return &Engine{db: storage.NewDB(), cfg: cfg, streams: make(map[string]*Stream)}
}

// OpenEngine creates an engine honouring the full configuration. With a
// DataDir it recovers the durable catalog from disk (manifest + segments +
// WAL replay) and returns an engine whose commits are write-ahead logged;
// Close flushes and releases it. Without a DataDir it is NewEngineWith.
func OpenEngine(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" {
		return NewEngineWith(cfg), nil
	}
	store, err := durable.Open(wal.OS(), cfg.DataDir, durable.Options{
		Fsync:           cfg.Fsync,
		WALFileBytes:    cfg.WALFileBytes,
		CheckpointBytes: cfg.CheckpointBytes,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{db: store.DB(), cfg: cfg, store: store, streams: make(map[string]*Stream)}, nil
}

// Durable reports whether the engine writes ahead to a data directory.
func (e *Engine) Durable() bool { return e.store != nil }

// Checkpoint flushes the WAL into segment files and trims it (durable
// engines only). The catalog stays fully available throughout.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return fmt.Errorf("%w: engine has no data directory", ErrBadArg)
	}
	return e.store.Checkpoint()
}

// Close releases the engine: open streams are closed and, when durable,
// a final checkpoint runs and the store shuts down. The engine must not
// be used afterwards. Safe to call on an in-memory engine (no-op) and
// more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
	if e.store == nil {
		return nil
	}
	return e.store.Close()
}

// Parallelism reports the configured worker count (0 = all cores).
func (e *Engine) Parallelism() int { return e.cfg.Parallelism }

// DB exposes the underlying catalog (advanced use).
func (e *Engine) DB() *storage.DB { return e.db }

// RegisterSeries stores a raw-value time series under name with the default
// column names (t, r).
func (e *Engine) RegisterSeries(name string, s *timeseries.Series) error {
	_, err := e.db.CreateRawTable(name, "", "", s)
	return err
}

// RegisterTable stores a raw-value time series with explicit column names.
func (e *Engine) RegisterTable(name, timeCol, valueCol string, s *timeseries.Series) error {
	_, err := e.db.CreateRawTable(name, timeCol, valueCol, s)
	return err
}

// Exec parses and executes a statement (CREATE VIEW ... AS DENSITY ...,
// SELECT, SHOW TABLES, DROP TABLE) against the engine's catalog. CREATE VIEW
// statements materialise their view with the engine's configured parallelism.
func (e *Engine) Exec(q string) (*query.Result, error) {
	return e.finishExec(query.ExecWith(e.db, q, query.Options{Parallelism: e.Parallelism()}))
}

// ExecStmt executes an already-parsed statement (see query.Parse). Callers
// that need to inspect the statement before running it — e.g. the server's
// build admission gate — parse once and hand the AST over instead of
// re-parsing through Exec.
func (e *Engine) ExecStmt(stmt query.Stmt) (*query.Result, error) {
	return e.finishExec(query.ExecStmtWith(e.db, stmt, query.Options{Parallelism: e.Parallelism()}))
}

func (e *Engine) finishExec(res *query.Result, err error) (*query.Result, error) {
	if err != nil {
		return nil, err
	}
	e.absorbCacheStats(res)
	return res, nil
}

// absorbCacheStats folds a discarded build cache's hit/miss counters into
// the engine-lifetime totals.
func (e *Engine) absorbCacheStats(res *query.Result) {
	if st := res.CacheStats; st != nil {
		e.mu.Lock()
		e.execCache.Hits += st.Hits
		e.execCache.Misses += st.Misses
		e.mu.Unlock()
		metCachesDiscarded.Inc()
	}
}

// RecoveryStats reports what the durable store replayed when the engine
// opened; ok is false for a purely in-memory engine.
func (e *Engine) RecoveryStats() (stats durable.RecoveryStats, ok bool) {
	if e.store == nil {
		return durable.RecoveryStats{}, false
	}
	return e.store.RecoveryStats(), true
}

// View fetches a materialised probabilistic view.
func (e *Engine) View(name string) (*storage.ProbTable, error) {
	return e.db.View(name)
}

// StreamConfig configures an online pipeline.
type StreamConfig struct {
	// Source is the raw table that receives the streamed values.
	Source string
	// ViewName is the probabilistic view extended on every step.
	ViewName string
	// Metric is the dynamic density metric (nil selects ARMA(1,0)-GARCH(1,1)).
	Metric density.Metric
	// H is the sliding-window length (0 selects query.DefaultWindow).
	H int
	// Omega holds the view parameters.
	Omega view.Omega
	// SigmaRange optionally enables the sigma-cache for the online mode:
	// because the query runs forever, the cache must be sized up front for
	// an expected [Min, Max] volatility band. Values outside the band fall
	// back to direct computation (still correct, just slower).
	SigmaRange *SigmaRange
	// Clean optionally enables C-GARCH cleaning of the stream (Section V).
	Clean *CleanStreamConfig
}

// SigmaRange is an expected volatility band with a Hellinger constraint.
type SigmaRange struct {
	Min, Max           float64
	DistanceConstraint float64
}

// CleanStreamConfig enables C-GARCH cleaning (Section V) on an online
// stream: raw values outside the metric's kappa-sigma bounds are marked
// erroneous and replaced with the inferred value before entering the model
// window, and runs longer than OCMax trigger trend re-adjustment through the
// Successive Variance Reduction filter.
type CleanStreamConfig struct {
	// OCMax is the trend-change run length (paper guideline: twice the
	// longest expected error burst).
	OCMax int
	// SVMax is the SVR filter's variance threshold; learn it from a clean
	// sample with clean.LearnSVMax.
	SVMax float64
}

// Stream is a live online pipeline. Step calls serialise on an internal
// lock, so a Stream may be driven from multiple goroutines (e.g. competing
// network requests); callers that need a deterministic ingest order must
// still provide it themselves.
type Stream struct {
	engine  *Engine
	cfg     StreamConfig
	builder *view.Builder
	table   *storage.ProbTable
	metric  density.Metric
	cache   *sigmacache.Cache

	mu     sync.Mutex // serialises StepBatch; guards every field below
	lastT  int64      // out-of-order watermark, seeded from the source table
	steps  int64
	closed bool
	window []float64        // plain path: the last H raw values (nil when cleaning)
	proc   *clean.Processor // C-GARCH path (nil unless cleaning); replaced by each batch
}

// OpenStream starts the online mode on a registered raw table. The table
// must already hold at least H values (the warm-up window); subsequent
// values arrive through Step. At most one stream may be open per source
// table; Close releases the slot.
func (e *Engine) OpenStream(cfg StreamConfig) (*Stream, error) {
	n, err := e.db.RawLen(cfg.Source)
	if err != nil {
		return nil, err
	}
	metric := cfg.Metric
	if metric == nil {
		metric, err = density.NewARMAGARCH(1, 0)
		if err != nil {
			return nil, err
		}
	}
	h := cfg.H
	if h == 0 {
		h = query.DefaultWindow
	}
	if h < metric.MinWindow() {
		h = metric.MinWindow()
	}
	if n < h {
		return nil, fmt.Errorf("%w: table %q holds %d values; warm-up needs %d",
			ErrBadArg, cfg.Source, n, h)
	}
	if cfg.ViewName == "" {
		return nil, fmt.Errorf("%w: empty view name", ErrBadArg)
	}

	builder, err := view.NewBuilder(cfg.Omega)
	if err != nil {
		return nil, err
	}
	var cache *sigmacache.Cache
	if sr := cfg.SigmaRange; sr != nil {
		cache, err = sigmacache.New(sigmacache.Config{
			Delta:              cfg.Omega.Delta,
			N:                  cfg.Omega.N,
			DistanceConstraint: sr.DistanceConstraint,
		}, sr.Min, sr.Max)
		if err != nil {
			return nil, err
		}
		builder.Cache = cache
	}

	// Warm up from the last H stored values (copied under the catalog lock,
	// so concurrent appends to other tables cannot tear the window).
	warm, err := e.db.RawTail(cfg.Source, h)
	if err != nil {
		return nil, err
	}

	stream := &Stream{engine: e, cfg: cfg, builder: builder, metric: metric, cache: cache}
	// The stream continues the stored series, so its out-of-order watermark
	// starts at the table's last timestamp: a stale very first Step is
	// rejected with ErrOutOfOrder like every later one, never with the raw
	// append's unsorted error.
	if stream.lastT, err = e.db.LastRawTime(cfg.Source); err != nil {
		return nil, err
	}
	if cc := cfg.Clean; cc != nil {
		proc, err := clean.NewProcessor(clean.Config{
			Metric: metric, H: h, OCMax: cc.OCMax, SVMax: cc.SVMax,
		}, warm)
		if err != nil {
			return nil, err
		}
		stream.proc = proc
	} else {
		stream.window = warm
	}

	table := &storage.ProbTable{
		Name:       cfg.ViewName,
		Source:     cfg.Source,
		MetricName: metric.Name(),
		Omega:      cfg.Omega,
	}

	// Fail fast on an obvious duplicate before touching the catalog.
	e.mu.Lock()
	if _, dup := e.streams[cfg.Source]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: table %q", ErrStreamExists, cfg.Source)
	}
	e.mu.Unlock()

	if err := e.db.StoreView(table); err != nil {
		return nil, err
	}
	stream.table = table

	// Register only the fully initialised stream: once it is visible in the
	// registry a concurrent ingest request may Step it immediately. Re-check
	// the slot in case another open won the race since the pre-check.
	e.mu.Lock()
	if _, dup := e.streams[cfg.Source]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: table %q", ErrStreamExists, cfg.Source)
	}
	e.streams[cfg.Source] = stream
	e.mu.Unlock()
	return stream, nil
}

// Stream returns the open stream on a source table.
func (e *Engine) Stream(source string) (*Stream, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.streams[source]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrStreamNotFound, source)
	}
	return s, nil
}

// StreamInfo describes one open stream for monitoring surfaces.
type StreamInfo struct {
	Source   string
	ViewName string
	Metric   string
	Steps    int64
	Cache    sigmacache.Stats
}

// Streams lists the open streams sorted by source table.
func (e *Engine) Streams() []StreamInfo {
	e.mu.Lock()
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	out := make([]StreamInfo, 0, len(streams))
	for _, s := range streams {
		out = append(out, StreamInfo{
			Source:   s.cfg.Source,
			ViewName: s.cfg.ViewName,
			Metric:   s.metric.Name(),
			Steps:    s.Steps(),
			Cache:    s.CacheStats(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// AggregateCacheStats sums sigma-cache effectiveness across the engine's
// caches. Hits and Misses are cumulative counters covering open streams and
// every past Exec-attached cache; Entries and ApproxBytes are gauges of the
// caches currently resident (open streams only — build caches are discarded
// with their builder).
func (e *Engine) AggregateCacheStats() sigmacache.Stats {
	e.mu.Lock()
	total := e.execCache
	streams := make([]*Stream, 0, len(e.streams))
	for _, s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	for _, s := range streams {
		st := s.CacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Entries += st.Entries
		total.ApproxBytes += st.ApproxBytes
	}
	return total
}

// StepResult augments view rows with the C-GARCH cleaning outcome.
type StepResult struct {
	Rows []view.Row
	// Cleaned is the value admitted into the model window (equals the raw
	// value unless cleaning replaced it).
	Cleaned float64
	// Erroneous reports whether the raw value was marked erroneous.
	Erroneous bool
	// TrendChange reports whether trend re-adjustment fired at this step.
	TrendChange bool
}

// Step ingests one raw value: it is appended to the source table, the
// density is inferred (after C-GARCH cleaning when enabled), and the
// generated view rows are appended to the materialised view and returned.
func (s *Stream) Step(p timeseries.Point) ([]view.Row, error) {
	res, err := s.StepDetailed(p)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// StepDetailed is Step plus the cleaning outcome: StepBatch with a single
// point.
func (s *Stream) StepDetailed(p timeseries.Point) (*StepResult, error) {
	res, err := s.StepBatch([]timeseries.Point{p})
	if err != nil {
		return nil, err
	}
	return &res[0], nil
}

// StepBatch ingests a batch of raw values, in order, as one unit: one
// result per point, rows identical to the same points stepped one at a
// time.
//
// A batch is atomic: either every raw point is stored, the model state
// advances past all of them and every view row is appended, or an error
// leaves every piece of state — raw table, model window, materialised
// view, WAL — untouched and no row is returned. The batch is prepared
// whole first, on a copy of the model state (inference, cleaning and row
// generation for all points); then storage.DB.CommitSteps logs it as one
// WAL record (one sync on a durable engine) and applies the points and
// rows; only after that success does the stream adopt the copy. No state
// change ever needs compensating, so a concurrent checkpoint or offline
// build can never observe a point that a failed batch later retracts, and
// the view is always a subset of the raw table.
func (s *Stream) StepBatch(pts []timeseries.Point) ([]StepResult, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: stream on %q is closed", ErrBadArg, s.cfg.Source)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadArg)
	}
	last := s.lastT
	for _, p := range pts {
		if p.T <= last {
			metOutOfOrder.Inc()
			return nil, fmt.Errorf("%w: t=%d after t=%d", ErrOutOfOrder, p.T, last)
		}
		last = p.T
	}
	out, rows, adopt, err := s.prepare(pts)
	if err != nil {
		metStepErrors.Inc()
		return nil, err
	}
	// Raw points and view rows commit as one unit — on a durable engine a
	// single WAL record, synced before this returns, so an acknowledged
	// batch is never half-recovered.
	cspan := obs.StartSpan(metCommitStage)
	err = s.engine.db.CommitSteps(s.cfg.Source, pts, s.table, rows)
	cspan.End()
	if err != nil {
		// The stream's own watermark starts at the table's last timestamp,
		// so an unsorted rejection here means a concurrent direct write
		// moved the raw table ahead — a conflict, not a malformed request.
		if errors.Is(err, timeseries.ErrUnsorted) {
			metOutOfOrder.Inc()
			return nil, fmt.Errorf("%w: %v", ErrOutOfOrder, err)
		}
		metStepErrors.Inc()
		return nil, err
	}
	adopt()
	s.lastT = last
	s.steps += int64(len(pts))
	metSteps.Add(int64(len(pts)))
	obs.ObserveSince(metStepSeconds, start)
	return out, nil
}

// prepare infers the density of every point of a batch — through a clone
// of the C-GARCH processor when cleaning, else from the metric over a
// copy of the last H raw values extended by the batch — and generates
// each point's view rows, without touching the stream's model state. The
// returned adopt installs the advanced state. Every fallible stage runs
// before any state changes. Caller holds s.mu.
func (s *Stream) prepare(pts []timeseries.Point) ([]StepResult, []view.Row, func(), error) {
	out := make([]StepResult, len(pts))
	rows := make([]view.Row, 0, len(pts)*s.cfg.Omega.N)
	var (
		proc *clean.Processor
		buf  []float64 // plain path: the window, then the batch's values
	)
	if s.proc != nil {
		proc = s.proc.Clone()
	} else {
		buf = make([]float64, len(s.window), len(s.window)+len(pts))
		copy(buf, s.window)
	}
	for i, p := range pts {
		res := &out[i]
		res.Cleaned = p.V
		var inf *density.Inference
		if proc != nil {
			st, err := proc.Step(p.V)
			if err != nil {
				return nil, nil, nil, err
			}
			inf = st.Inference
			res.Cleaned, res.Erroneous, res.TrendChange = st.Cleaned, st.Erroneous, st.TrendChange
		} else {
			mspan := obs.StartSpan(metModelStage)
			var err error
			inf, err = s.metric.Infer(buf[i : i+len(s.window) : i+len(s.window)])
			mspan.End()
			if err != nil {
				return nil, nil, nil, err
			}
			buf = append(buf, p.V)
		}
		vspan := obs.StartSpan(metViewStage)
		r, err := s.builder.GenerateOne(view.Tuple{T: p.T, RHat: inf.RHat, Sigma: inf.Sigma, Dist: inf.Dist})
		vspan.End()
		if err != nil {
			return nil, nil, nil, err
		}
		res.Rows = r
		rows = append(rows, r...)
	}
	if proc != nil {
		return out, rows, func() { s.proc = proc }, nil
	}
	return out, rows, func() { copy(s.window, buf[len(pts):]) }, nil
}

// Steps reports how many values the stream has ingested.
func (s *Stream) Steps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// ViewName returns the materialised view the stream extends.
func (s *Stream) ViewName() string { return s.cfg.ViewName }

// Close releases the stream's slot on its source table. The materialised
// view stays in the catalog; further Step calls fail with ErrBadArg.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.engine.mu.Lock()
	if s.engine.streams[s.cfg.Source] == s {
		delete(s.engine.streams, s.cfg.Source)
	}
	s.engine.mu.Unlock()
}

// CacheStats reports sigma-cache effectiveness (zero Stats when no cache is
// attached).
func (s *Stream) CacheStats() sigmacache.Stats {
	if s.cache == nil {
		return sigmacache.Stats{}
	}
	return s.cache.Stats()
}

// MetricName returns the active metric's name.
func (s *Stream) MetricName() string { return s.metric.Name() }
