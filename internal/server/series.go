package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/probdb"
	"repro/internal/query"
)

// GET /views/{view}/series: the fused multi-statistic endpoint. One chunked
// column scan answers any subset of the dashboard statistics — expected-value
// series, range-probability series and expected count — instead of one scan
// per statistic. ?stats= selects the subset (default: all three); prob and
// count need the value range (?lo=&hi=). ?from=&to= bound the time window
// and ?explain=1 attaches the scan statistics, including how many workers
// and chunks the scan used.

// SeriesResponse is the GET /views/{view}/series payload. Deselected
// statistics are omitted; Lo/Hi echo the value range when one was given.
type SeriesResponse struct {
	View     string          `json:"view"`
	Lo       *float64        `json:"lo,omitempty"`
	Hi       *float64        `json:"hi,omitempty"`
	Expected []TimeValueJSON `json:"expected,omitempty"`
	Prob     []TimeValueJSON `json:"prob,omitempty"`
	Count    *float64        `json:"count,omitempty"`
	Stats    *query.Stats    `json:"stats,omitempty"`
}

// parseSeriesStats parses the ?stats= selector: a comma-separated subset of
// expected, prob, count. Empty selects all three.
func parseSeriesStats(raw string) (probdb.FusedStats, error) {
	if raw == "" {
		return probdb.FusedStats{Expected: true, Prob: true, Count: true}, nil
	}
	var want probdb.FusedStats
	for _, name := range strings.Split(raw, ",") {
		switch strings.TrimSpace(name) {
		case "expected":
			want.Expected = true
		case "prob":
			want.Prob = true
		case "count":
			want.Count = true
		default:
			return want, fmt.Errorf("%w: stats=%q (want a subset of expected,prob,count)", errBadRequest, raw)
		}
	}
	return want, nil
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) error {
	pv, err := s.engine.View(r.PathValue("view"))
	if err != nil {
		return err
	}
	want, err := parseSeriesStats(r.URL.Query().Get("stats"))
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
	if (want.Prob || want.Count) && (!okLo || !okHi) {
		return fmt.Errorf("%w: stats prob and count require lo= and hi=", errBadRequest)
	}
	from, to, err := timeRangeParams(r)
	if err != nil {
		return err
	}
	workers := query.ResolveParallelism(s.engine.Parallelism())
	start := time.Now()
	fr, plan, err := probdb.FusedSeries(pv, from, to, lo, hi, want, workers)
	if err != nil {
		return err
	}
	resp := SeriesResponse{View: pv.Name}
	if okLo && okHi {
		resp.Lo, resp.Hi = &lo, &hi
	}
	if want.Expected {
		resp.Expected = timeValuesJSON(fr.Expected)
	}
	if want.Prob {
		resp.Prob = timeValuesJSON(fr.Prob)
	}
	if want.Count {
		resp.Count = &fr.Count
	}
	if explainRequested(r) {
		st := probStats("series", pv, from, to, start)
		st.Path = "fused"
		st.Workers, st.Chunks, st.RowsRead = plan.Workers, plan.Chunks, plan.RowsRead
		resp.Stats = st
	}
	return writeJSON(w, http.StatusOK, resp)
}

func timeValuesJSON(series []probdb.TimeSeriesPoint) []TimeValueJSON {
	out := make([]TimeValueJSON, len(series))
	for i, pt := range series {
		out[i] = TimeValueJSON{T: pt.T, Value: pt.Value}
	}
	return out
}
