// Command tspdbd is the network daemon of the probabilistic time-series
// database: it serves the engine's ingest, query and probabilistic-view
// surfaces over HTTP/JSON to concurrent clients.
//
// Usage:
//
//	tspdbd [-addr :8080] [-data-dir dir] [-fsync=true] \
//	       [-load table=path.csv]... [-parallel N] \
//	       [-max-builds N] [-max-batch N] \
//	       [-log-level info] [-log-format text] [-slow-query 0] \
//	       [-debug-addr addr]
//
// -data-dir makes the daemon durable: the catalog is recovered from the
// directory on start (write-ahead log replay over checkpointed segment
// files) and every acknowledged mutation — table creation, ingest step,
// view materialisation — is logged before the response is sent, so a
// crash (even SIGKILL) loses nothing that was acknowledged. -fsync
// (default true) additionally syncs the log on every commit, extending
// the guarantee from process death to power loss. POST /checkpoint
// flushes the log into segments on demand; a byte-threshold background
// checkpointer does the same automatically. Without -data-dir the
// catalog lives in memory only and nothing survives a restart.
//
// Range aggregates over views (GET /views/{v}/rangeprob?from=&to=, SELECT
// EXPECTED/PROB/... via POST /query) run as one indexed pass over the
// view's timestamp group index. Ingest batches whose timestamps do not
// continue the stream answer 409 (conflict: resume past the last accepted
// timestamp), never 400.
//
// Observability: logs are structured (log/slog); -log-format json makes
// every line machine-parseable and -log-level debug/info/warn/error filters
// them. -slow-query 250ms logs any slower request at warn with its route,
// status and request id (every response carries an X-Request-Id header).
// GET /metrics on the serving address exposes Prometheus metrics for every
// subsystem — HTTP routes, WAL appends and fsyncs, checkpoints, recovery
// replay, ingest pipeline stages, sigma-cache hits and misses, query kernels.
// -debug-addr 127.0.0.1:6060 additionally serves net/http/pprof profiles
// under /debug/pprof/ and a JSON metrics dump at /debug/obs on a separate
// (keep it loopback-only) listener. Appending ?explain=1 to POST /query or
// the probabilistic view endpoints returns scan statistics in the response.
//
// See DESIGN.md for the endpoint table; quick start:
//
//	tspdbd -addr :8080 -load raw_values=campus.csv &
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/query -d '{"q":"CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 FROM raw_values WHERE t >= 100 AND t <= 200"}'
//	curl 'localhost:8080/views/pv/topk?t=150&k=3'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
)

type loadFlags []string

func (l *loadFlags) String() string { return strings.Join(*l, ",") }
func (l *loadFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var loads loadFlags
	flag.Var(&loads, "load", "table=csvfile pair; repeatable")
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + segments); empty = in-memory")
	fsync := flag.Bool("fsync", true, "sync the WAL on every commit (with -data-dir)")
	parallel := flag.Int("parallel", 0, "view-build inference and read-kernel workers (0 = all cores, 1 = sequential)")
	maxBuilds := flag.Int("max-builds", 2, "concurrent CREATE VIEW materialisations")
	maxBatch := flag.Int("max-batch", 10000, "max points per ingest request")
	grace := flag.Duration("grace", 10*time.Second, "graceful-shutdown timeout")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	slowQuery := flag.Duration("slow-query", 0, "log requests slower than this at warn level (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof/ and /debug/obs on this address (empty = off; keep it loopback-only)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tspdbd:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	cfg := repro.EngineConfig{Parallelism: *parallel, DataDir: *dataDir, Fsync: *fsync}
	opts := runOptions{
		loads: loads, addr: *addr, engine: cfg,
		maxBuilds: *maxBuilds, maxBatch: *maxBatch, grace: *grace,
		slowQuery: *slowQuery, debugAddr: *debugAddr,
	}
	if err := run(logger, opts); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger from the -log-level and
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

type runOptions struct {
	loads     loadFlags
	addr      string
	engine    repro.EngineConfig
	maxBuilds int
	maxBatch  int
	grace     time.Duration
	slowQuery time.Duration
	debugAddr string
}

func run(logger *slog.Logger, o runOptions) error {
	engine, err := repro.OpenEngine(o.engine)
	if err != nil {
		return fmt.Errorf("open data dir %s: %w", o.engine.DataDir, err)
	}
	defer engine.Close()
	if st, ok := engine.RecoveryStats(); ok {
		logger.Info("durable catalog recovered",
			"data_dir", o.engine.DataDir,
			"tables", len(engine.DB().List()),
			"segments_opened", st.SegmentsOpened,
			"wal_files_replayed", st.WALFilesReplayed,
			"wal_records_replayed", st.RecordsReplayed,
			"torn_tail_truncated", st.TornTail,
			"replay_duration", st.Duration,
			"fsync", o.engine.Fsync)
	}
	for _, spec := range o.loads {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("bad -load %q (want table=path.csv)", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		s, err := repro.ReadSeriesCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := engine.RegisterSeries(name, s); err != nil {
			return err
		}
		logger.Info("loaded table", "table", name, "rows", s.Len())
	}

	srv := repro.NewServer(engine, repro.ServerConfig{
		MaxViewBuilds: o.maxBuilds,
		MaxBatch:      o.maxBatch,
		Logger:        logger,
		SlowQuery:     o.slowQuery,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.debugAddr != "" {
		dbg := &http.Server{Addr: o.debugAddr, Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "addr", o.debugAddr, "err", err)
			}
		}()
		defer dbg.Close()
		logger.Info("debug server listening", "addr", o.debugAddr)
	}
	logger.Info("tspdbd listening", "addr", o.addr, "durable", engine.Durable())
	if err := srv.Run(ctx, o.addr, o.grace); err != nil {
		return err
	}
	if err := engine.Close(); err != nil {
		return fmt.Errorf("close data dir: %w", err)
	}
	logger.Info("tspdbd shut down cleanly")
	return nil
}
