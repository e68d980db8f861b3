package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/probdb"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// synth returns a deterministic "sensor" series of n values starting at
// timestamp t0: a slow sine with small structured wiggle. The value is a
// pure function of the timestamp (no RNG, no slice index), so any split of
// the same time range into batches produces identical points and every
// build of the same data is byte-identical.
func synth(t0 int64, n int) []timeseries.Point {
	pts := make([]timeseries.Point, n)
	for i := 0; i < n; i++ {
		t := t0 + int64(i)
		v := 20 + 5*math.Sin(float64(t)*0.17) + float64((t*37)%11)*0.05
		pts[i] = timeseries.Point{T: t, V: v}
	}
	return pts
}

func synthJSON(t0 int64, n int) []PointJSON {
	pts := synth(t0, n)
	out := make([]PointJSON, n)
	for i, p := range pts {
		out[i] = PointJSON{T: p.T, V: p.V}
	}
	return out
}

// newTestServer starts a server over a fresh engine preloaded with a static
// raw table "campus" of 160 points.
func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *Client, *core.Engine) {
	t.Helper()
	engine := core.NewEngine()
	series, err := timeseries.New(synth(1, 160))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.RegisterSeries("campus", series); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, cfg))
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL), engine
}

func TestHealthz(t *testing.T) {
	_, client, _ := newTestServer(t, Config{})
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Tables != 1 || h.Streams != 0 {
		t.Fatalf("unexpected health: %+v", h)
	}
}

func TestCreateTableQueryAndProbEndpoints(t *testing.T) {
	_, client, _ := newTestServer(t, Config{})

	if _, err := client.CreateTable("hotel", CreateTableRequest{Points: synthJSON(1, 64)}); err != nil {
		t.Fatal(err)
	}

	res, err := client.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 16 CACHE DISTANCE 0.01 FROM campus WHERE t >= 40 AND t <= 120`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "view" || res.View == nil || res.View.Rows == 0 {
		t.Fatalf("unexpected query result: %+v", res)
	}
	if res.Cache == nil || res.Cache.Entries == 0 {
		t.Fatalf("expected cache stats, got %+v", res.Cache)
	}

	rows, err := client.ViewRows("pv", 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 11*res.View.N {
		t.Fatalf("expected %d rows, got %d", 11*res.View.N, len(rows.Rows))
	}

	p, err := client.RangeProb("pv", 60, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.9 { // nearly all mass of the truncated Gaussian lies in [0, 100]
		t.Fatalf("rangeprob over the full domain = %v, want ~1", p)
	}

	top, err := client.TopK("pv", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].Prob < top[1].Prob || top[1].Prob < top[2].Prob {
		t.Fatalf("topk not descending: %+v", top)
	}

	buckets, err := client.Buckets("pv", 60, []BucketJSON{
		{Name: "low", Lo: 0, Hi: 20}, {Name: "high", Lo: 20, Hi: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("expected 2 buckets, got %+v", buckets)
	}

	// SELECT through /query matches the dedicated scan endpoint.
	sel, err := client.Exec(`SELECT * FROM pv WHERE t >= 50 AND t <= 60`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Kind != "rows" || len(sel.Rows) != len(rows.Rows) {
		t.Fatalf("SELECT returned %d rows, scan returned %d", len(sel.Rows), len(rows.Rows))
	}
}

func TestStreamLifecycleOverHTTP(t *testing.T) {
	ts, client, _ := newTestServer(t, Config{})

	// A stream has no parallelism knob: an unknown field is a 400, and no
	// stream opens.
	bad, err := http.Post(ts.URL+"/tables/campus/stream", "application/json",
		strings.NewReader(`{"view":"campus_live","h":16,"delta":0.5,"n":8,"parallelism":3}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("parallelism field: got %d, want 400", bad.StatusCode)
	}

	open := OpenStreamRequest{View: "campus_live", H: 16, Delta: 0.5, N: 8,
		SigmaMin: 1e-3, SigmaMax: 50, Distance: 0.01}
	if _, err := client.OpenStream("campus", open); err != nil {
		t.Fatal(err)
	}

	// Second stream on the same table conflicts.
	var apiErr *APIError
	if _, err := client.OpenStream("campus", open); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate stream: got %v, want 409", err)
	}

	batch := synthJSON(161, 10)
	resp, err := client.Ingest("campus", batch)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Ingested != 10 || len(resp.Rows) != 10*8 {
		t.Fatalf("ingest: %d points, %d rows", resp.Ingested, len(resp.Rows))
	}

	// Stale timestamp conflicts with already accepted points: 409, not 400.
	if _, err := client.Ingest("campus", synthJSON(5, 1)); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || !apiErr.Conflict() {
		t.Fatalf("stale ingest: got %v, want 409", err)
	}

	// Ingest without a stream is 404.
	if _, err := client.Ingest("nosuch", batch); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("no-stream ingest: got %v, want 404", err)
	}

	if err := client.do(http.MethodDelete, "/tables/campus/stream", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Closed stream: further ingest 404s, reopening succeeds.
	if _, err := client.Ingest("campus", synthJSON(300, 1)); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("closed-stream ingest: got %v, want 404", err)
	}
	if _, err := client.OpenStream("campus", OpenStreamRequest{View: "campus_live2", H: 16, Delta: 0.5, N: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestErrorStatusMapping asserts the HTTP codes promised by the sentinel
// error audit, both at the unit level (StatusFor over wrapped sentinels) and
// end-to-end through request handling.
func TestErrorStatusMapping(t *testing.T) {
	unit := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("wrap: %w", storage.ErrNotFound), 404},
		{fmt.Errorf("wrap: %w", core.ErrStreamNotFound), 404},
		{fmt.Errorf("wrap: %w", probdb.ErrNoRows), 404},
		{fmt.Errorf("wrap: %w", view.ErrNoTuples), 404},
		{fmt.Errorf("wrap: %w", storage.ErrExists), 409},
		{fmt.Errorf("wrap: %w", core.ErrStreamExists), 409},
		{fmt.Errorf("wrap: %w", core.ErrOutOfOrder), 409},
		{fmt.Errorf("wrap: %w", core.ErrBadArg), 400},
		{fmt.Errorf("wrap: %w", storage.ErrBadName), 400},
		{fmt.Errorf("wrap: %w", storage.ErrBadSchema), 400},
		{fmt.Errorf("wrap: %w", probdb.ErrBadArg), 400},
		{fmt.Errorf("wrap: %w", view.ErrBadOmega), 400},
		{fmt.Errorf("wrap: %w", view.ErrBadArg), 400},
		{fmt.Errorf("wrap: %w", query.ErrUnknownMetric), 400},
		{fmt.Errorf("wrap: %w", query.ErrBadMetricArg), 400},
		{fmt.Errorf("wrap: %w", query.ErrColumnMismatch), 400},
		{fmt.Errorf("wrap: %w", query.ErrUnsupported), 400},
		{fmt.Errorf("wrap: %w", timeseries.ErrUnsorted), 400},
		{&query.SyntaxError{Pos: 3, Msg: "boom"}, 400},
		// Corrupt commit-log records are engine-side damage: explicitly 500
		// (the case exists so tspdblint's sentinel coverage stays total).
		{fmt.Errorf("wrap: %w", durable.ErrBadRecord), 500},
		{errors.New("opaque failure"), 500},
	}
	for _, tc := range unit {
		if got := StatusFor(tc.err); got != tc.want {
			t.Errorf("StatusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}

	_, client, _ := newTestServer(t, Config{})
	var apiErr *APIError
	requests := []struct {
		name string
		do   func() error
		want int
	}{
		{"syntax error", func() error { _, err := client.Exec("CREATE VEIW x"); return err }, 400},
		{"unknown table", func() error { _, err := client.Exec("SELECT * FROM ghost"); return err }, 404},
		{"unknown view scan", func() error { _, err := client.AllViewRows("ghost"); return err }, 404},
		{"duplicate table", func() error {
			_, err := client.CreateTable("campus", CreateTableRequest{Points: synthJSON(1, 4)})
			return err
		}, 409},
		{"bad table name", func() error {
			_, err := client.CreateTable("bad name!", CreateTableRequest{Points: synthJSON(1, 4)})
			return err
		}, 400},
		{"unknown metric", func() error {
			_, err := client.OpenStream("campus", OpenStreamRequest{View: "v", Delta: 0.5, N: 8,
				Metric: &MetricSpecJSON{Name: "NOPE"}})
			return err
		}, 400},
		{"bad omega", func() error {
			_, err := client.OpenStream("campus", OpenStreamRequest{View: "v", Delta: 0.5, N: 7})
			return err
		}, 400},
		{"rangeprob missing bounds", func() error {
			return (&Client{Base: client.Base}).do(http.MethodGet, "/views/ghost/rangeprob", nil, nil)
		}, 404},
		{"no rows at t", func() error {
			if _, err := client.Exec(`CREATE VIEW evm AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW 16 FROM campus WHERE t >= 100 AND t <= 110`); err != nil {
				return err
			}
			_, err := client.TopK("evm", 9999, 1)
			return err
		}, 404},
	}
	for _, tc := range requests {
		err := tc.do()
		if !errors.As(err, &apiErr) || apiErr.Status != tc.want {
			t.Errorf("%s: got %v, want HTTP %d", tc.name, err, tc.want)
		}
	}
}

func TestSyntaxErrorReportsPosition(t *testing.T) {
	_, client, _ := newTestServer(t, Config{})
	_, err := client.Exec("SELECT %%")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("expected APIError, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "position") {
		t.Fatalf("syntax error message lacks position: %q", apiErr.Message)
	}
}

// TestQueryIsOneStatement pins that POST /query runs one statement: a second
// one after ';' is a 400 and does not run, and so is a WHERE bound that no
// int64 time can meet.
func TestQueryIsOneStatement(t *testing.T) {
	_, client, engine := newTestServer(t, Config{})
	for _, q := range []string{
		"SELECT * FROM campus WHERE t = 1; DROP TABLE campus",
		"SELECT * FROM campus WHERE t >= 1e30",
	} {
		_, err := client.Exec(q)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%q: got %v, want HTTP 400", q, err)
		}
	}
	if n, err := engine.DB().RawLen("campus"); err != nil || n != 160 {
		t.Fatalf("campus after the rejected batch: %d points, %v; want 160, nil", n, err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, client, _ := newTestServer(t, Config{})
	if _, err := client.Exec(`CREATE VIEW mv AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 16 CACHE DISTANCE 0.01 FROM campus WHERE t >= 40 AND t <= 120`); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`tspdbd_requests_total{code="200",route="POST /query"} 1`,
		`tspdbd_request_duration_seconds_count{route="GET /healthz"} 1`,
		"tspdbd_sigma_cache_hits_total",
		"tspdbd_sigma_cache_hit_rate",
		"tspdbd_streams_open 0",
		"tspdbd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}

func TestIngestBatchLimit(t *testing.T) {
	_, client, _ := newTestServer(t, Config{MaxBatch: 5})
	if _, err := client.OpenStream("campus", OpenStreamRequest{View: "lim", H: 16, Delta: 1, N: 2}); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := client.Ingest("campus", synthJSON(200, 6)); !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("oversized batch: got %v, want 400", err)
	}
	if _, err := client.Ingest("campus", synthJSON(200, 5)); err != nil {
		t.Fatal(err)
	}
}
