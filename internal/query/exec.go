package query

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/clean"
	"repro/internal/density"
	"repro/internal/obs"
	"repro/internal/probdb"
	"repro/internal/sigmacache"
	"repro/internal/storage"
	"repro/internal/view"
)

// Execution errors.
var (
	ErrUnknownMetric  = errors.New("query: unknown metric")
	ErrBadMetricArg   = errors.New("query: invalid metric parameter")
	ErrColumnMismatch = errors.New("query: column names do not match the source table")
	ErrUnsupported    = errors.New("query: unsupported statement")
)

// DefaultWindow is the sliding-window length used when a CREATE VIEW query
// has no WINDOW clause.
const DefaultWindow = 90

// Result is the outcome of executing a statement.
type Result struct {
	// Kind is "view", "rows" or "ok".
	Kind string
	// View is set for CREATE VIEW: the materialised probabilistic view.
	View *storage.ProbTable
	// Columns/Rows hold tabular output for SELECT and SHOW TABLES.
	Columns []string
	Rows    [][]string
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// CacheStats reports sigma-cache effectiveness when a cache was used.
	CacheStats *sigmacache.Stats
	// Stats is the per-query cost profile behind the server's ?explain=1.
	Stats Stats
}

// Stats describes what a statement cost: which physical path served it and
// how much it scanned or produced. ParseNs is zero here — callers that
// parse separately (the server does) fill it in their explain payload.
type Stats struct {
	// Statement is the statement kind: "create_view", "select",
	// "show_tables" or "drop".
	Statement string `json:"statement"`
	// Path is the physical path taken: "columnar" (batch kernels over the
	// struct-of-arrays projection), "row" (row-copy listing), "raw" (raw
	// table scan), "build" (view materialisation) or "meta".
	Path string `json:"path"`
	// Groups and Rows are the group-index span of the scanned time range
	// (for a build: tuples inferred and rows materialised).
	Groups int `json:"groups_scanned"`
	Rows   int `json:"rows_scanned"`
	// RowsRead is how many of those rows the kernels actually read: a
	// columnar window scan skips a tuple's rows outside the value range,
	// EXPECTED reads none (the group index holds each tuple's sums), and an
	// early-stopping ANY or ALLIN none past its deciding tuple. A row path
	// reads every row of its span; a build reads none.
	RowsRead int `json:"rows_read"`
	// Workers and Chunks report how a parallel-capable scan executed:
	// Workers goroutines over Chunks contiguous group chunks, {1, 1} for the
	// sequential fast path. A build reports only Workers, the size of its
	// inference pool. Zero (omitted) on paths that never parallelise.
	Workers int `json:"workers,omitempty"`
	Chunks  int `json:"chunks,omitempty"`
	// ParseNs and ExecNs decompose the query's latency.
	ParseNs int64 `json:"parse_ns,omitempty"`
	ExecNs  int64 `json:"exec_ns"`
}

// Options tunes statement execution.
type Options struct {
	// Parallelism is the worker count for CREATE VIEW's density inference
	// and for the chunked read kernels behind EXPECTED, PROB and COUNT:
	// 1 runs sequentially, 0 selects GOMAXPROCS (see ResolveParallelism).
	// Results are byte-identical at every setting.
	Parallelism int
}

// ResolveParallelism maps the engine's parallelism knob onto an explicit
// worker count. This is the one place the 0 = "all cores" convention is
// defined: 0 resolves to GOMAXPROCS, anything else passes through. The
// resolved count feeds both view.TuplesFromSeries and the probdb scan
// kernels, which treat <= 1 as sequential.
func ResolveParallelism(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ExecWith parses and executes a statement against the catalog.
func ExecWith(db *storage.DB, input string, opts Options) (*Result, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return ExecStmtWith(db, stmt, opts)
}

// ExecStmtWith executes a parsed statement against the catalog.
func ExecStmtWith(db *storage.DB, stmt Stmt, opts Options) (*Result, error) {
	start := time.Now()
	var res *Result
	var err error
	var statement string
	switch s := stmt.(type) {
	case *CreateViewStmt:
		statement = "create_view"
		res, err = execCreateView(db, s, opts)
	case *SelectStmt:
		statement = "select"
		res, err = execSelect(db, s, opts)
	case *ShowTablesStmt:
		statement = "show_tables"
		res, err = execShowTables(db)
	case *DropStmt:
		statement = "drop"
		err = db.Drop(s.Table)
		res = &Result{Kind: "ok", Stats: Stats{Path: "meta"}}
	default:
		err = fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = obs.ObserveSince(metQuerySeconds, start)
	res.Stats.Statement = statement
	res.Stats.ExecNs = res.Elapsed.Nanoseconds()
	statementCounter(statement).Inc()
	return res, nil
}

// BuildMetric constructs a dynamic density metric from a METRIC clause.
// A nil spec yields the paper's default, ARMA(1,0)-GARCH(1,1).
func BuildMetric(spec *MetricSpec) (density.Metric, error) {
	if spec == nil {
		return density.NewARMAGARCH(1, 0)
	}
	p := intParam(spec.Params, "p", 1)
	q := intParam(spec.Params, "q", 0)
	switch spec.Name {
	case "ARMA_GARCH", "ARMAGARCH", "GARCH":
		m, err := density.NewARMAGARCH(p, q)
		if err != nil {
			return nil, err
		}
		m.M = intParam(spec.Params, "m", 1)
		m.S = intParam(spec.Params, "s", 1)
		if kappa, ok := spec.Params["kappa"]; ok {
			m.Kappa = kappa
		}
		return m, nil
	case "UT", "UNIFORM":
		u, ok := spec.Params["u"]
		if !ok {
			return nil, fmt.Errorf("%w: UT requires u=<threshold>", ErrBadMetricArg)
		}
		return density.NewUniformThresholding(p, q, u)
	case "VT", "VARIABLE":
		return density.NewVariableThresholding(p, q)
	case "KALMAN_GARCH", "KALMANGARCH", "KALMAN":
		m := density.NewKalmanGARCH()
		m.M = intParam(spec.Params, "m", 1)
		m.S = intParam(spec.Params, "s", 1)
		if kappa, ok := spec.Params["kappa"]; ok {
			m.Kappa = kappa
		}
		return m, nil
	case "CGARCH", "C_GARCH":
		inner, err := density.NewARMAGARCH(p, q)
		if err != nil {
			return nil, err
		}
		if kappa, ok := spec.Params["kappa"]; ok {
			inner.Kappa = kappa
		}
		svMax, ok := spec.Params["svmax"]
		if !ok || svMax <= 0 {
			return nil, fmt.Errorf("%w: CGARCH requires svmax=<positive threshold>", ErrBadMetricArg)
		}
		return &clean.Metric{Inner: inner, SVMax: svMax}, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownMetric, spec.Name)
	}
}

func intParam(params map[string]float64, key string, def int) int {
	v, ok := params[key]
	if !ok {
		return def
	}
	if v != math.Trunc(v) || v < 0 {
		return def
	}
	return int(v)
}

func execCreateView(db *storage.DB, s *CreateViewStmt, opts Options) (*Result, error) {
	raw, err := db.RawTable(s.From)
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(s.ValueCol, raw.ValueCol) || !strings.EqualFold(s.TimeCol, raw.TimeCol) {
		return nil, fmt.Errorf("%w: query uses (%s, %s); table %q has (%s, %s)",
			ErrColumnMismatch, s.ValueCol, s.TimeCol, raw.Name, raw.ValueCol, raw.TimeCol)
	}
	metric, err := BuildMetric(s.Metric)
	if err != nil {
		return nil, err
	}
	h := s.Window
	if h == 0 {
		h = DefaultWindow
	}
	if h < metric.MinWindow() {
		h = metric.MinWindow()
	}

	tLo, tHi := int64(math.MinInt64), int64(math.MaxInt64)
	if s.Where != nil {
		tLo, tHi = s.Where.Lo, s.Where.Hi
	}
	// Build from a snapshot of the series so the (potentially long) window
	// inference and view generation run without holding any catalog lock:
	// online ingest into the same table proceeds concurrently and the view
	// covers a consistent prefix.
	series, err := db.SnapshotSeries(s.From)
	if err != nil {
		return nil, err
	}
	workers := ResolveParallelism(opts.Parallelism)
	tuples, err := view.TuplesFromSeries(series, metric, h, tLo, tHi, 1, workers)
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return nil, view.ErrNoTuples
	}

	builder, err := view.NewBuilder(view.Omega{Delta: s.Delta, N: s.N})
	if err != nil {
		return nil, err
	}
	var cache *sigmacache.Cache
	if s.Cache != nil {
		cache, err = builder.AttachCache(tuples, s.Cache.Distance, s.Cache.Memory)
		if err != nil {
			return nil, err
		}
	}
	v, err := builder.Generate(tuples)
	if err != nil {
		return nil, err
	}
	table := storage.NewProbTable(storage.ViewMeta{
		Name:       s.ViewName,
		Source:     s.From,
		MetricName: metric.Name(),
		Omega:      v.Omega,
	}, v.Rows)
	if err := db.StoreView(table); err != nil {
		return nil, err
	}
	res := &Result{
		Kind: "view", View: table,
		Stats: Stats{Path: "build", Groups: len(tuples), Rows: len(v.Rows),
			Workers: min(workers, len(tuples))},
	}
	if cache != nil {
		st := cache.Stats()
		res.CacheStats = &st
	}
	return res, nil
}

func execSelect(db *storage.DB, s *SelectStmt, opts Options) (*Result, error) {
	tLo, tHi := int64(math.MinInt64), int64(math.MaxInt64)
	if s.Where != nil {
		tLo, tHi = s.Where.Lo, s.Where.Hi
	}

	if s.Agg != nil {
		pv, err := db.View(s.Table)
		if err != nil {
			return nil, fmt.Errorf("query: aggregates require a probabilistic view: %w", err)
		}
		return execAggregate(pv, s, tLo, tHi, opts)
	}

	// Probabilistic view?
	if pv, err := db.View(s.Table); err == nil {
		groups, rows := pv.RangeSize(tLo, tHi)
		res := &Result{
			Kind: "rows", Columns: []string{"t", "lambda", "lo", "hi", "prob"},
			Stats: Stats{Path: "row", Groups: groups, Rows: rows, RowsRead: rows},
		}
		span, err := pv.RowsRange(tLo, tHi)
		if err != nil {
			return nil, err
		}
		for _, r := range span {
			res.Rows = append(res.Rows, []string{
				strconv.FormatInt(r.T, 10),
				strconv.Itoa(r.Lambda),
				formatFloat(r.Lo),
				formatFloat(r.Hi),
				formatFloat(r.Prob),
			})
			if s.Limit > 0 && len(res.Rows) >= s.Limit {
				break
			}
		}
		return res, nil
	}

	// Raw table?
	raw, err := db.RawTable(s.Table)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: "rows", Columns: []string{raw.TimeCol, raw.ValueCol}}
	sub, err := db.ScanRaw(s.Table, tLo, tHi)
	if err != nil {
		return nil, err
	}
	res.Stats = Stats{Path: "raw", Rows: sub.Len(), RowsRead: sub.Len()}
	for i := 0; i < sub.Len(); i++ {
		p, err := sub.At(i)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			strconv.FormatInt(p.T, 10),
			formatFloat(p.V),
		})
		if s.Limit > 0 && len(res.Rows) >= s.Limit {
			break
		}
	}
	return res, nil
}

// execAggregate evaluates a probabilistic aggregate over a view. EXPECTED,
// PROB and COUNT run on the chunked worker pool (byte-identical output at
// any worker count); ANY and ALLIN stay sequential — their early-stop
// reducers decide the answer mid-scan.
func execAggregate(pv *storage.ProbTable, s *SelectStmt, tLo, tHi int64, opts Options) (*Result, error) {
	workers := ResolveParallelism(opts.Parallelism)
	var res *Result
	var plan probdb.ScanPlan
	switch s.Agg.Name {
	case "EXPECTED":
		series, p, err := probdb.ExpectedSeriesPar(pv, tLo, tHi, workers)
		if err != nil {
			return nil, err
		}
		res, plan = seriesResult("expected", series, s.Limit), p
	case "PROB":
		series, p, err := probdb.ProbSeriesPar(pv, tLo, tHi, s.Agg.Lo, s.Agg.Hi, workers)
		if err != nil {
			return nil, err
		}
		res, plan = seriesResult("prob", series, s.Limit), p
	case "ANY":
		v, p, err := probdb.AnyInRangePlan(pv, tLo, tHi, s.Agg.Lo, s.Agg.Hi)
		if err != nil {
			return nil, err
		}
		res, plan = scalarResult("any", v), p
	case "ALLIN":
		v, p, err := probdb.AllInRangePlan(pv, tLo, tHi, s.Agg.Lo, s.Agg.Hi)
		if err != nil {
			return nil, err
		}
		res, plan = scalarResult("allin", v), p
	case "COUNT":
		v, p, err := probdb.ExpectedCountPar(pv, tLo, tHi, s.Agg.Lo, s.Agg.Hi, workers)
		if err != nil {
			return nil, err
		}
		res, plan = scalarResult("count", v), p
	default:
		return nil, fmt.Errorf("%w: aggregate %q", ErrUnsupported, s.Agg.Name)
	}
	groups, rows := pv.RangeSize(tLo, tHi)
	res.Stats = Stats{Path: "columnar", Groups: groups, Rows: rows, RowsRead: plan.RowsRead,
		Workers: plan.Workers, Chunks: plan.Chunks}
	return res, nil
}

func seriesResult(col string, series []probdb.TimeSeriesPoint, limit int) *Result {
	res := &Result{Kind: "rows", Columns: []string{"t", col}}
	for _, pt := range series {
		res.Rows = append(res.Rows, []string{
			strconv.FormatInt(pt.T, 10),
			formatFloat(pt.Value),
		})
		if limit > 0 && len(res.Rows) >= limit {
			break
		}
	}
	return res
}

func scalarResult(col string, v float64) *Result {
	return &Result{
		Kind:    "rows",
		Columns: []string{col},
		Rows:    [][]string{{formatFloat(v)}},
	}
}

func execShowTables(db *storage.DB) (*Result, error) {
	res := &Result{Kind: "rows", Columns: []string{"name", "kind", "rows"},
		Stats: Stats{Path: "meta"}}
	for _, info := range db.List() {
		res.Rows = append(res.Rows, []string{info.Name, info.Kind, strconv.Itoa(info.Rows)})
	}
	return res, nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 10, 64)
}
