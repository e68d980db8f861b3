package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// latencyBuckets are the request-latency histogram upper bounds in seconds
// (Prometheus convention: cumulative, with an implicit +Inf bucket). Coarser
// than obs.DurationBuckets because a request includes JSON codec and network
// time that the engine-side histograms already decompose.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// observe records one completed request in the server's registry. Route
// metrics live in a per-Server registry, not obs.Default: tests (and
// embedders) run several servers in one process, and each server's scrape
// should count only its own traffic. The engine-side tspdb_* metrics stay
// process-wide in obs.Default and are appended to the same scrape below.
func (s *Server) observe(route string, code int, seconds float64) {
	s.reg.Counter("tspdbd_requests_total", "Requests served, by route and status code.",
		obs.Label{Name: "route", Value: route},
		obs.Label{Name: "code", Value: strconv.Itoa(code)}).Inc()
	s.reg.Histogram("tspdbd_request_duration_seconds", "Request latency histogram by route.",
		latencyBuckets, obs.Label{Name: "route", Value: route}).Observe(seconds)
}

// handleMetrics renders the Prometheus text exposition format in three
// parts: the server's own registry (route counters/latencies, uptime,
// goroutines), dynamic engine-bound sections whose label sets change as
// streams open and close (sigma-cache effectiveness, stream gauges), and
// finally the process-wide obs.Default registry with every tspdb_*
// subsystem metric (WAL, checkpoints, replay, ingest stages, query
// kernels). Family names never overlap across the three parts, so the
// concatenation is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	if err := s.reg.WritePrometheus(w); err != nil {
		return err
	}

	cache := s.engine.AggregateCacheStats()
	hitRate := 0.0
	if total := cache.Hits + cache.Misses; total > 0 {
		hitRate = float64(cache.Hits) / float64(total)
	}
	fmt.Fprintf(w, "# HELP tspdbd_sigma_cache_hits_total Sigma-cache hits across all caches.\n")
	fmt.Fprintf(w, "# TYPE tspdbd_sigma_cache_hits_total counter\n")
	fmt.Fprintf(w, "tspdbd_sigma_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "# HELP tspdbd_sigma_cache_misses_total Sigma-cache misses across all caches.\n")
	fmt.Fprintf(w, "# TYPE tspdbd_sigma_cache_misses_total counter\n")
	fmt.Fprintf(w, "tspdbd_sigma_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "# HELP tspdbd_sigma_cache_hit_rate Hit fraction over all sigma-cache lookups.\n")
	fmt.Fprintf(w, "# TYPE tspdbd_sigma_cache_hit_rate gauge\n")
	fmt.Fprintf(w, "tspdbd_sigma_cache_hit_rate %g\n", hitRate)
	fmt.Fprintf(w, "# HELP tspdbd_sigma_cache_bytes Approximate resident size of cached grids (open streams).\n")
	fmt.Fprintf(w, "# TYPE tspdbd_sigma_cache_bytes gauge\n")
	fmt.Fprintf(w, "tspdbd_sigma_cache_bytes %d\n", cache.ApproxBytes)

	streams := s.engine.Streams()
	fmt.Fprintf(w, "# HELP tspdbd_streams_open Open online streams.\n")
	fmt.Fprintf(w, "# TYPE tspdbd_streams_open gauge\n")
	fmt.Fprintf(w, "tspdbd_streams_open %d\n", len(streams))
	fmt.Fprintf(w, "# HELP tspdbd_stream_steps_total Values ingested per stream.\n")
	fmt.Fprintf(w, "# TYPE tspdbd_stream_steps_total counter\n")
	for _, st := range streams {
		fmt.Fprintf(w, "tspdbd_stream_steps_total{table=%q,view=%q} %d\n", st.Source, st.ViewName, st.Steps)
	}

	return obs.Default.WritePrometheus(w)
}
