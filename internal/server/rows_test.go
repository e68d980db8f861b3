package server

import (
	"net/http"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// TestWindowDefaultsCoverAllTimestamps: a REST window with no from= or to=
// spans every int64 timestamp, as a SQL query without WHERE does, so tuples
// beyond ±2^62 are neither dropped from /rows and /series nor from the
// window form of /rangeprob.
func TestWindowDefaultsCoverAllTimestamps(t *testing.T) {
	_, client, engine := newTestServer(t, Config{})
	times := []int64{-1<<62 - 5, 7, 1<<62 + 5}
	var rows []view.Row
	for _, tt := range times {
		rows = append(rows, view.Row{T: tt, Lambda: 0, Lo: 0, Hi: 1, Prob: 0.5}, view.Row{T: tt, Lambda: 1, Lo: 1, Hi: 2, Prob: 0.5})
	}
	meta := storage.ViewMeta{Name: "pv", Source: "campus", Omega: view.Omega{Delta: 1, N: 2}}
	if err := engine.DB().StoreView(storage.NewProbTable(meta, rows)); err != nil {
		t.Fatal(err)
	}
	if res, err := engine.Exec("SELECT EXPECTED FROM pv"); err != nil || len(res.Rows) != len(times) {
		t.Fatalf("SELECT EXPECTED: %v rows, err %v; want %d", res, err, len(times))
	}

	got, err := client.AllViewRows("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(rows) || got.Rows[0].T != times[0] || got.Rows[len(rows)-1].T != times[2] {
		t.Errorf("/rows = %+v, want %d rows from t=%d to t=%d", got.Rows, len(rows), times[0], times[2])
	}
	var series SeriesResponse
	if err := client.do(http.MethodGet, "/views/pv/series?stats=expected", nil, &series); err != nil {
		t.Fatal(err)
	}
	var rp RangeProbResponse
	if err := client.do(http.MethodGet, "/views/pv/rangeprob?lo=0&hi=1", nil, &rp); err != nil {
		t.Fatal(err)
	}
	for name, pts := range map[string][]TimeValueJSON{"/series": series.Expected, "/rangeprob": rp.Series} {
		if len(pts) != len(times) {
			t.Errorf("%s = %+v, want %d timestamps", name, pts, len(times))
			continue
		}
		for i, pt := range pts {
			if pt.T != times[i] {
				t.Errorf("%s[%d].T = %d, want %d", name, i, pt.T, times[i])
			}
		}
	}
}
