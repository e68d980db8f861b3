package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// ingestBodies renders n consecutive 10-point ingest bodies continuing the
// 160-point "campus" table.
func ingestBodies(t testing.TB, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		b, err := json.Marshal(IngestRequest{Points: synthJSON(161+int64(10*i), 10)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// openLive opens the ARMA-GARCH stream "live" on the campus table.
func openLive(t testing.TB, h http.Handler) {
	t.Helper()
	b, err := json.Marshal(OpenStreamRequest{View: "live", H: 90, Delta: 0.5, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/campus/stream", bytes.NewReader(b)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("open stream: HTTP %d: %s", rec.Code, rec.Body)
	}
}

// TestIngestAllocs pins the allocations of one 10-point ingest request
// through the handler, inference included: the response rows are one
// slice sized from the batch, not a slice per point appended into a
// growing one, and the batch steps the stream once. The count is exact
// for a given toolchain (344 with Go 1.24, against 373 when each point was
// stepped and appended on its own); the ceiling leaves a few allocations
// of slack for toolchain drift.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	engine := core.NewEngine()
	series, err := timeseries.New(synth(1, 160))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.RegisterSeries("campus", series); err != nil {
		t.Fatal(err)
	}
	srv := New(engine, Config{})
	openLive(t, srv)
	const runs = 20
	bodies := ingestBodies(t, runs+1) // AllocsPerRun adds one warm-up run
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/campus/points", bytes.NewReader(bodies[k])))
		k++
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: HTTP %d: %s", rec.Code, rec.Body)
		}
	})
	if allocs > 350 {
		t.Fatalf("a 10-point ingest request allocates %.0f times, want at most 350", allocs)
	}
}

// TestDurableIngestOneSync: on a durable engine with fsync, one ingest
// request of n points is one WAL record and one WAL sync, and the
// acknowledged points survive a restart.
func TestDurableIngestOneSync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	engine, err := core.OpenEngine(core.Config{DataDir: dir, Fsync: true, CheckpointBytes: -1})
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
	srv := New(engine, Config{})
	openLive(t, srv)

	// The registry is process-wide: assert deltas.
	fsyncs := obs.Default.Histogram("tspdb_wal_fsync_seconds", "", obs.DurationBuckets)
	records := obs.Default.Counter("tspdb_wal_records_total", "")
	for _, body := range ingestBodies(t, 3) {
		syncs0, recs0 := fsyncs.Snapshot().Count, records.Value()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tables/campus/points", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: HTTP %d: %s", rec.Code, rec.Body)
		}
		if got := fsyncs.Snapshot().Count - syncs0; got != 1 {
			t.Errorf("a 10-point request synced the WAL %d times, want 1", got)
		}
		if got := records.Value() - recs0; got != 1 {
			t.Errorf("a 10-point request appended %d WAL records, want 1", got)
		}
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	engine, err = core.OpenEngine(core.Config{DataDir: dir, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	if n, _ := engine.DB().RawLen("campus"); n != 190 {
		t.Fatalf("recovered %d raw points, want 190", n)
	}
	if pv, err := engine.View("live"); err != nil || pv.NumRows() != 30*8 {
		t.Fatalf("recovered view: %v, want %d rows", err, 30*8)
	}
}

// TestIngestBatchCommitsAsUnit: a batch whose 4th point repeats an earlier
// timestamp is a 409 that stores none of its points and returns no rows;
// the same points then ingest cleanly.
func TestIngestBatchCommitsAsUnit(t *testing.T) {
	_, client, engine := newTestServer(t, Config{})
	if _, err := client.OpenStream("campus", OpenStreamRequest{View: "live", H: 90, Delta: 0.5, N: 8}); err != nil {
		t.Fatal(err)
	}
	batch := synthJSON(161, 6)
	bad := append([]PointJSON(nil), batch...)
	bad[3].T = bad[1].T
	var apiErr *APIError
	resp, err := client.Ingest("campus", bad)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || resp != nil {
		t.Fatalf("batch with a stale 4th point: %+v, %v; want 409 and no response", resp, err)
	}
	pv, err := engine.View("live")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := engine.DB().RawLen("campus"); n != 160 || pv.NumRows() != 0 {
		t.Fatalf("rejected batch stored %d raw points and %d rows", n-160, pv.NumRows())
	}
	resp, err = client.Ingest("campus", batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ingested != 6 || len(resp.Rows) != 6*8 || pv.NumRows() != 6*8 {
		t.Fatalf("ingest: %d points, %d rows returned, %d stored", resp.Ingested, len(resp.Rows), pv.NumRows())
	}
}
