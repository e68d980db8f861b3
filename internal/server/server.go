// Package server is the network serving subsystem: an HTTP/JSON daemon
// wrapping core.Engine so the probabilistic database of Fig. 2 can be driven
// by concurrent remote clients instead of only in-process or through the
// tspdb shell.
//
// The surface mirrors the engine's two operating modes. Online: PUT a raw
// table, open a stream on it, then POST batches of points; each batch
// commits as a unit (all of its points, or on an error none of them) and
// returns the incrementally generated view rows. Offline: POST Fig. 7
// statements to /query. Materialised views are scanned with time-range GETs
// and queried through the probabilistic endpoints (rangeprob, topk,
// buckets), which map straight onto the probdb helpers.
//
// Concurrency model: the catalog and every shared table are internally
// locked (storage package), streams serialise their own steps, and offline
// view builds run over snapshots — so readers are never blocked by a build
// and ingest is never blocked by readers. The server adds two policies on
// top: per-stream ingest batches are capped (MaxBatch), and at most
// MaxViewBuilds CREATE VIEW statements materialise at once so one expensive
// Omega-view build cannot starve ingest of CPU.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// Config tunes a Server.
type Config struct {
	// MaxViewBuilds caps concurrent CREATE VIEW materialisations; further
	// builds queue. 0 selects 2.
	MaxViewBuilds int
	// MaxBatch caps the number of points accepted per ingest request.
	// 0 selects 10000.
	MaxBatch int
	// MaxBodyBytes caps request body sizes. 0 selects 32 MiB.
	MaxBodyBytes int64
	// Logger receives the server's structured logs: handler panics and
	// slow requests, each tagged with the request id. Nil selects
	// slog.Default().
	Logger *slog.Logger
	// SlowQuery is the latency above which a completed request is logged
	// at warn level with its route, status and request id. 0 disables
	// slow-request logging.
	SlowQuery time.Duration
}

// Server is the HTTP serving layer over one engine. It implements
// http.Handler; Run serves it with graceful shutdown.
type Server struct {
	engine   *core.Engine
	cfg      Config
	mux      *http.ServeMux
	logger   *slog.Logger
	reg      *obs.Registry // per-server metrics (routes, uptime); see observe
	start    time.Time
	buildSem chan struct{}
	idPrefix string // random per-process prefix of generated request ids
	reqSeq   atomic.Uint64
}

// New wraps an engine in a server. The engine may already hold tables and
// open streams (e.g. recovered from a data directory).
func New(engine *core.Engine, cfg Config) *Server {
	if cfg.MaxViewBuilds <= 0 {
		cfg.MaxViewBuilds = 2
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 10000
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	var pfx [4]byte
	rand.Read(pfx[:])
	s := &Server{
		engine:   engine,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		logger:   logger,
		reg:      obs.NewRegistry(),
		start:    time.Now(),
		buildSem: make(chan struct{}, cfg.MaxViewBuilds),
		idPrefix: hex.EncodeToString(pfx[:]),
	}
	s.reg.GaugeFunc("tspdbd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("tspdbd_goroutines", "Current goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("tspdb_storage_view_resident_rows",
		"View rows resident in memory; rows still behind a lazy segment load are not.",
		func() float64 { rows, _ := engine.DB().ViewResident(); return float64(rows) })
	s.reg.GaugeFunc("tspdb_storage_view_resident_bytes",
		"Bytes the resident view rows occupy: capacity of every view's columns and group index.",
		func() float64 { _, bytes := engine.DB().ViewResident(); return float64(bytes) })
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("PUT /tables/{table}", s.handleCreateTable)
	s.handle("POST /tables/{table}/points", s.handleIngest)
	s.handle("POST /tables/{table}/stream", s.handleOpenStream)
	s.handle("DELETE /tables/{table}/stream", s.handleCloseStream)
	s.handle("POST /query", s.handleQuery)
	s.handle("GET /views/{view}/rows", s.handleViewRows)
	s.handle("GET /views/{view}/series", s.handleSeries)
	s.handle("GET /views/{view}/rangeprob", s.handleRangeProb)
	s.handle("GET /views/{view}/topk", s.handleTopK)
	s.handle("POST /views/{view}/buckets", s.handleBuckets)
	s.handle("POST /checkpoint", s.handleCheckpoint)
	return s
}

// Run serves the handler on addr until ctx is cancelled, then shuts down
// gracefully: in-flight requests get up to grace (default 10s) to finish.
// It returns the error that stopped the listener, or nil on clean shutdown.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	if grace <= 0 {
		grace = 10 * time.Second
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	}
}

// handle registers an instrumented route. The wrapper is the server's whole
// middleware stack: it assigns (or propagates) the X-Request-Id, recovers
// handler panics into logged 500s, records the request in the route metrics,
// and logs requests slower than Config.SlowQuery — in that order, so a
// panicking handler is still counted and a slow panic is still logged.
func (s *Server) handle(pattern string, fn func(http.ResponseWriter, *http.Request) error) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", reqID)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				// Count the request as a 500 even when the handler panicked
				// after writing a success header; the wire status cannot be
				// amended, but the metrics and the log should not claim OK.
				sw.code = http.StatusInternalServerError
				s.logger.Error("handler panic",
					"route", pattern, "request_id", reqID,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if !sw.wrote {
					_ = writeJSON(sw, http.StatusInternalServerError,
						ErrorResponse{Error: "internal server error", Code: http.StatusInternalServerError})
				}
			}
			elapsed := time.Since(start)
			s.observe(pattern, sw.code, elapsed.Seconds())
			if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
				s.logger.Warn("slow request",
					"route", pattern, "request_id", reqID,
					"status", sw.code, "elapsed", elapsed)
			}
		}()
		if err := fn(sw, r); err != nil {
			writeError(sw, err)
		}
	})
}

// ServeHTTP dispatches to the instrumented routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	return json.NewEncoder(w).Encode(v)
}

func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// PointJSON is the wire form of one raw value.
type PointJSON struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// RowJSON is the wire form of one probabilistic view row.
type RowJSON struct {
	T      int64   `json:"t"`
	Lambda int     `json:"lambda"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Prob   float64 `json:"prob"`
}

func rowsJSON(rows []view.Row) []RowJSON {
	return appendRowsJSON(make([]RowJSON, 0, len(rows)), rows)
}

// appendRowsJSON appends the wire form of rows to dst.
func appendRowsJSON(dst []RowJSON, rows []view.Row) []RowJSON {
	for _, r := range rows {
		dst = append(dst, RowJSON{T: r.T, Lambda: r.Lambda, Lo: r.Lo, Hi: r.Hi, Prob: r.Prob})
	}
	return dst
}

// HealthResponse is the GET /healthz payload.
type HealthResponse struct {
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Tables        int    `json:"tables"`
	Streams       int    `json:"streams"`
	// Durable reports whether the engine write-ahead logs to a data
	// directory (POST /checkpoint is only meaningful when true).
	Durable bool `json:"durable"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Tables:        len(s.engine.DB().List()),
		Streams:       len(s.engine.Streams()),
		Durable:       s.engine.Durable(),
	})
}

// CheckpointResponse is the POST /checkpoint payload: the durable engine
// flushed its WAL into segment files and trimmed the replayed prefix.
type CheckpointResponse struct {
	Checkpointed bool `json:"checkpointed"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) error {
	if err := s.engine.Checkpoint(); err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, CheckpointResponse{Checkpointed: true})
}

// CreateTableRequest is the PUT /tables/{table} payload.
type CreateTableRequest struct {
	TimeCol  string      `json:"time_col,omitempty"`
	ValueCol string      `json:"value_col,omitempty"`
	Points   []PointJSON `json:"points"`
}

// CreateTableResponse confirms a registered raw table.
type CreateTableResponse struct {
	Table string `json:"table"`
	Rows  int    `json:"rows"`
}

func (s *Server) handleCreateTable(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("table")
	var series *timeseries.Series
	req := CreateTableRequest{}
	if r.Header.Get("Content-Type") == "text/csv" {
		var err error
		series, err = timeseries.ReadCSV(r.Body)
		if err != nil {
			return err
		}
	} else {
		if err := readJSON(r, &req); err != nil {
			return err
		}
		pts := make([]timeseries.Point, len(req.Points))
		for i, p := range req.Points {
			pts[i] = timeseries.Point{T: p.T, V: p.V}
		}
		var err error
		series, err = timeseries.New(pts)
		if err != nil {
			return err
		}
	}
	if err := s.engine.RegisterTable(name, req.TimeCol, req.ValueCol, series); err != nil {
		return err
	}
	return writeJSON(w, http.StatusCreated, CreateTableResponse{Table: name, Rows: series.Len()})
}

// MetricSpecJSON selects a dynamic density metric by name, mirroring the
// METRIC clause of Fig. 7 (ARMA_GARCH, UT, VT, KALMAN_GARCH, CGARCH).
type MetricSpecJSON struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// OpenStreamRequest is the POST /tables/{table}/stream payload.
type OpenStreamRequest struct {
	View       string          `json:"view"`
	Metric     *MetricSpecJSON `json:"metric,omitempty"`
	H          int             `json:"h,omitempty"`
	Delta      float64         `json:"delta"`
	N          int             `json:"n"`
	SigmaMin   float64         `json:"sigma_min,omitempty"`
	SigmaMax   float64         `json:"sigma_max,omitempty"`
	Distance   float64         `json:"distance,omitempty"`
	CleanOCMax int             `json:"clean_ocmax,omitempty"`
	CleanSVMax float64         `json:"clean_svmax,omitempty"`
}

// OpenStreamResponse confirms an opened stream.
type OpenStreamResponse struct {
	Table  string `json:"table"`
	View   string `json:"view"`
	Metric string `json:"metric"`
}

func (s *Server) handleOpenStream(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("table")
	var req OpenStreamRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	cfg := core.StreamConfig{
		Source:   name,
		ViewName: req.View,
		H:        req.H,
		Omega:    view.Omega{Delta: req.Delta, N: req.N},
	}
	if req.Metric != nil {
		m, err := query.BuildMetric(&query.MetricSpec{Name: req.Metric.Name, Params: req.Metric.Params})
		if err != nil {
			return err
		}
		cfg.Metric = m
	}
	if req.SigmaMax > 0 {
		cfg.SigmaRange = &core.SigmaRange{
			Min: req.SigmaMin, Max: req.SigmaMax, DistanceConstraint: req.Distance,
		}
	}
	if req.CleanOCMax > 0 || req.CleanSVMax > 0 {
		cfg.Clean = &core.CleanStreamConfig{OCMax: req.CleanOCMax, SVMax: req.CleanSVMax}
	}
	stream, err := s.engine.OpenStream(cfg)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusCreated, OpenStreamResponse{
		Table: name, View: stream.ViewName(), Metric: stream.MetricName(),
	})
}

func (s *Server) handleCloseStream(w http.ResponseWriter, r *http.Request) error {
	stream, err := s.engine.Stream(r.PathValue("table"))
	if err != nil {
		return err
	}
	stream.Close()
	return writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

// IngestRequest is the POST /tables/{table}/points payload: a batch of
// points with strictly increasing timestamps continuing the stream.
type IngestRequest struct {
	Points []PointJSON `json:"points"`
}

// IngestResponse returns the view rows generated for the batch, in input
// order, plus the C-GARCH cleaning outcome when cleaning is enabled.
type IngestResponse struct {
	Ingested     int       `json:"ingested"`
	Rows         []RowJSON `json:"rows"`
	Erroneous    int       `json:"erroneous,omitempty"`
	TrendChanges int       `json:"trend_changes,omitempty"`
}

// handleIngest commits the batch as a unit through core.Stream.StepBatch:
// every point is prepared first, then the whole batch is logged as one WAL
// record (one sync on a durable engine) and applied. The response goes
// out only after that; on an error nothing of the batch was stored and no
// rows are returned.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	stream, err := s.engine.Stream(r.PathValue("table"))
	if err != nil {
		return err
	}
	var req IngestRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	if len(req.Points) == 0 {
		return fmt.Errorf("%w: empty batch", errBadRequest)
	}
	if len(req.Points) > s.cfg.MaxBatch {
		return fmt.Errorf("%w: batch of %d exceeds limit %d", errBadRequest, len(req.Points), s.cfg.MaxBatch)
	}
	pts := make([]timeseries.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = timeseries.Point{T: p.T, V: p.V}
	}
	results, err := stream.StepBatch(pts)
	if err != nil {
		return err
	}
	n := 0
	for i := range results {
		n += len(results[i].Rows)
	}
	resp := IngestResponse{Ingested: len(results), Rows: make([]RowJSON, 0, n)}
	for i := range results {
		res := &results[i]
		resp.Rows = appendRowsJSON(resp.Rows, res.Rows)
		if res.Erroneous {
			resp.Erroneous++
		}
		if res.TrendChange {
			resp.TrendChanges++
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	Q string `json:"q"`
}

// ViewSummaryJSON summarises a materialised view.
type ViewSummaryJSON struct {
	Name   string  `json:"name"`
	Source string  `json:"source"`
	Metric string  `json:"metric"`
	Delta  float64 `json:"delta"`
	N      int     `json:"n"`
	Rows   int     `json:"rows"`
}

// CacheStatsJSON reports sigma-cache effectiveness.
type CacheStatsJSON struct {
	Hits        int `json:"hits"`
	Misses      int `json:"misses"`
	Entries     int `json:"entries"`
	ApproxBytes int `json:"approx_bytes"`
}

// QueryResponse is the POST /query result: kind "view" carries the view
// summary, kind "rows" the tabular output.
type QueryResponse struct {
	Kind      string           `json:"kind"`
	Columns   []string         `json:"columns,omitempty"`
	Rows      [][]string       `json:"rows,omitempty"`
	View      *ViewSummaryJSON `json:"view,omitempty"`
	Cache     *CacheStatsJSON  `json:"cache,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
	// Stats carries the executor's query statistics when the request sets
	// ?explain=1: scan path taken, groups/rows scanned, parse/exec time.
	Stats *query.Stats `json:"stats,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) error {
	var req QueryRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	parseStart := time.Now()
	stmt, err := query.Parse(req.Q)
	if err != nil {
		return err
	}
	parseNs := time.Since(parseStart).Nanoseconds()
	// Gate expensive materialisations so a burst of CREATE VIEW requests
	// cannot occupy every core; ingest and scans never wait here.
	if _, isBuild := stmt.(*query.CreateViewStmt); isBuild {
		select {
		case s.buildSem <- struct{}{}:
			defer func() { <-s.buildSem }()
		case <-r.Context().Done():
			return r.Context().Err()
		}
	}
	res, err := s.engine.ExecStmt(stmt)
	if err != nil {
		return err
	}
	resp := QueryResponse{
		Kind:      res.Kind,
		Columns:   res.Columns,
		Rows:      res.Rows,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}
	if res.View != nil {
		resp.View = &ViewSummaryJSON{
			Name:   res.View.Name,
			Source: res.View.Source,
			Metric: res.View.MetricName,
			Delta:  res.View.Omega.Delta,
			N:      res.View.Omega.N,
			Rows:   res.View.NumRows(),
		}
	}
	if st := res.CacheStats; st != nil {
		resp.Cache = &CacheStatsJSON{
			Hits: st.Hits, Misses: st.Misses, Entries: st.Entries, ApproxBytes: st.ApproxBytes,
		}
	}
	if explainRequested(r) {
		stats := res.Stats
		stats.ParseNs = parseNs
		resp.Stats = &stats
	}
	return writeJSON(w, http.StatusOK, resp)
}

// explainRequested reports whether the client asked for query statistics
// (?explain=1) in the response.
func explainRequested(r *http.Request) bool { return r.URL.Query().Get("explain") == "1" }

// ViewRowsResponse is the GET /views/{view}/rows payload.
type ViewRowsResponse struct {
	View string    `json:"view"`
	Rows []RowJSON `json:"rows"`
}

func (s *Server) handleViewRows(w http.ResponseWriter, r *http.Request) error {
	pv, err := s.engine.View(r.PathValue("view"))
	if err != nil {
		return err
	}
	from, to, err := timeRangeParams(r)
	if err != nil {
		return err
	}
	rows, err := pv.RowsRange(from, to)
	if err != nil {
		return err
	}
	if limit, err := intParam(r, "limit", 0); err != nil {
		return err
	} else if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return writeJSON(w, http.StatusOK, ViewRowsResponse{View: pv.Name, Rows: rowsJSON(rows)})
}

// timeRangeParams reads the from= and to= window bounds; an absent bound
// is open, the same full int64 range a SQL query without WHERE scans.
func timeRangeParams(r *http.Request) (from, to int64, err error) {
	from, err = int64Param(r, "from", math.MinInt64)
	if err != nil {
		return 0, 0, err
	}
	to, err = int64Param(r, "to", math.MaxInt64)
	if err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func int64Param(r *http.Request, key string, def int64) (int64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q", errBadRequest, key, s)
	}
	return v, nil
}

func intParam(r *http.Request, key string, def int) (int, error) {
	v, err := int64Param(r, key, int64(def))
	return int(v), err
}

func floatParam(r *http.Request, key string) (float64, bool, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false, fmt.Errorf("%w: %s=%q", errBadRequest, key, s)
	}
	return v, true, nil
}
