package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// TestViewRowsReportsFailedLazyLoad: a recovered view whose segment is
// corrupt knows its row count but cannot produce its rows. A row scan over
// REST and SELECT * must both fail with the load error (500), never answer
// 200 with no rows.
func TestViewRowsReportsFailedLazyLoad(t *testing.T) {
	dir := t.TempDir()
	engine, err := core.OpenEngine(core.Config{DataDir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	series, err := timeseries.New(synth(1, 160))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.RegisterSeries("campus", series); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW 16 FROM campus WHERE t >= 100 AND t <= 110`); err != nil {
		t.Fatal(err)
	}
	if err := engine.Close(); err != nil { // checkpoints pv into a segment
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*-pv.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("pv segments = %v (%v), want one", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // inside the record payload: the frame's checksum fails on load
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	engine, err = core.OpenEngine(core.Config{DataDir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(New(engine, Config{}))
	defer ts.Close()
	client := NewClient(ts.URL)
	var apiErr *APIError
	if resp, err := client.AllViewRows("pv"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("GET /views/pv/rows = %+v, %v; want HTTP 500", resp, err)
	}
	if resp, err := client.Exec("SELECT * FROM pv"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Errorf("SELECT * FROM pv = %+v, %v; want HTTP 500", resp, err)
	}
}

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
