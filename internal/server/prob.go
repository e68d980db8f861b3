package server

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/probdb"
	"repro/internal/query"
	"repro/internal/storage"
)

// Probabilistic query endpoints: thin HTTP bindings over the probdb helpers,
// answering the paper's consumer queries ("in which room is Alice?") against
// a materialised view without shipping the rows to the client.

// RangeProbResponse is the GET /views/{view}/rangeprob payload. For a
// point query (?t=) Prob holds the single probability; for a range query
// (?from=&to=) Series holds one probability per tuple.
type RangeProbResponse struct {
	View   string          `json:"view"`
	Lo     float64         `json:"lo"`
	Hi     float64         `json:"hi"`
	T      *int64          `json:"t,omitempty"`
	Prob   *float64        `json:"prob,omitempty"`
	Series []TimeValueJSON `json:"series,omitempty"`
	Stats  *query.Stats    `json:"stats,omitempty"`
}

// probStats assembles the ?explain=1 statistics of one probdb endpoint: the
// kernels run columnar over the view's group index, so the scanned span is
// read off the index in O(log T) after the fact. RowsRead starts as that
// span, which a point kernel reads whole; window endpoints replace it with
// their scan plan's count.
func probStats(statement string, pv *storage.ProbTable, tLo, tHi int64, start time.Time) *query.Stats {
	groups, rows := pv.RangeSize(tLo, tHi)
	return &query.Stats{
		Statement: statement,
		Path:      "columnar",
		Groups:    groups,
		Rows:      rows,
		RowsRead:  rows,
		ExecNs:    time.Since(start).Nanoseconds(),
	}
}

// TimeValueJSON pairs a timestamp with a scalar.
type TimeValueJSON struct {
	T     int64   `json:"t"`
	Value float64 `json:"value"`
}

func (s *Server) handleRangeProb(w http.ResponseWriter, r *http.Request) error {
	pv, err := s.engine.View(r.PathValue("view"))
	if err != nil {
		return err
	}
	lo, okLo, err := floatParam(r, "lo")
	if err != nil {
		return err
	}
	hi, okHi, err := floatParam(r, "hi")
	if err != nil {
		return err
	}
	if !okLo || !okHi {
		return fmt.Errorf("%w: rangeprob requires lo= and hi=", errBadRequest)
	}
	resp := RangeProbResponse{View: pv.Name, Lo: lo, Hi: hi}
	start := time.Now()
	if ts := r.URL.Query().Get("t"); ts != "" {
		t, err := int64Param(r, "t", 0)
		if err != nil {
			return err
		}
		p, err := probdb.RangeProbAt(pv, t, lo, hi)
		if err != nil {
			return err
		}
		resp.T, resp.Prob = &t, &p
		if explainRequested(r) {
			resp.Stats = probStats("rangeprob", pv, t, t, start)
		}
		return writeJSON(w, http.StatusOK, resp)
	}
	from, to, err := timeRangeParams(r)
	if err != nil {
		return err
	}
	// The window form is SQL's PROB(lo, hi): same kernel entry, same workers.
	workers := query.ResolveParallelism(s.engine.Parallelism())
	series, plan, err := probdb.ProbSeriesPar(pv, from, to, lo, hi, workers)
	if err != nil {
		return err
	}
	resp.Series = timeValuesJSON(series)
	if explainRequested(r) {
		resp.Stats = probStats("rangeprob", pv, from, to, start)
		resp.Stats.Workers, resp.Stats.Chunks, resp.Stats.RowsRead = plan.Workers, plan.Chunks, plan.RowsRead
	}
	return writeJSON(w, http.StatusOK, resp)
}

// TopKResponse is the GET /views/{view}/topk payload: the k most probable
// Omega ranges of one tuple, descending.
type TopKResponse struct {
	View  string       `json:"view"`
	T     int64        `json:"t"`
	K     int          `json:"k"`
	Rows  []RowJSON    `json:"rows"`
	Stats *query.Stats `json:"stats,omitempty"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) error {
	pv, err := s.engine.View(r.PathValue("view"))
	if err != nil {
		return err
	}
	if r.URL.Query().Get("t") == "" {
		return fmt.Errorf("%w: topk requires t=", errBadRequest)
	}
	t, err := int64Param(r, "t", 0)
	if err != nil {
		return err
	}
	k, err := intParam(r, "k", 1)
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := probdb.TopKAt(pv, t, k)
	if err != nil {
		return err
	}
	resp := TopKResponse{View: pv.Name, T: t, K: k, Rows: rowsJSON(rows)}
	if explainRequested(r) {
		resp.Stats = probStats("topk", pv, t, t, start)
	}
	return writeJSON(w, http.StatusOK, resp)
}

// BucketJSON is a named value interval (a room in Fig. 1).
type BucketJSON struct {
	Name string  `json:"name"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// BucketsRequest is the POST /views/{view}/buckets payload.
type BucketsRequest struct {
	T       int64        `json:"t"`
	Buckets []BucketJSON `json:"buckets"`
}

// BucketProbJSON is one bucket with its probability.
type BucketProbJSON struct {
	Name string  `json:"name"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Prob float64 `json:"prob"`
}

// BucketsResponse lists bucket probabilities in descending order.
type BucketsResponse struct {
	View    string           `json:"view"`
	T       int64            `json:"t"`
	Buckets []BucketProbJSON `json:"buckets"`
	Stats   *query.Stats     `json:"stats,omitempty"`
}

func (s *Server) handleBuckets(w http.ResponseWriter, r *http.Request) error {
	pv, err := s.engine.View(r.PathValue("view"))
	if err != nil {
		return err
	}
	var req BucketsRequest
	if err := readJSON(r, &req); err != nil {
		return err
	}
	buckets := make([]probdb.Bucket, len(req.Buckets))
	for i, b := range req.Buckets {
		buckets[i] = probdb.Bucket{Name: b.Name, Lo: b.Lo, Hi: b.Hi}
	}
	start := time.Now()
	probs, err := probdb.BucketQueryAt(pv, req.T, buckets)
	if err != nil {
		return err
	}
	resp := BucketsResponse{View: pv.Name, T: req.T, Buckets: make([]BucketProbJSON, len(probs))}
	if explainRequested(r) {
		resp.Stats = probStats("buckets", pv, req.T, req.T, start)
		resp.Stats.RowsRead *= len(buckets) // one pass over the tuple per bucket
	}
	for i, bp := range probs {
		resp.Buckets[i] = BucketProbJSON{
			Name: bp.Bucket.Name, Lo: bp.Bucket.Lo, Hi: bp.Bucket.Hi, Prob: bp.Prob,
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}
