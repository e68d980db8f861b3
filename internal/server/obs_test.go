package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// postQuery posts a Fig. 7 statement to /query with optional query-string
// parameters and decodes the response.
func postQuery(t *testing.T, base, params, q string) QueryResponse {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Q: q})
	resp, err := http.Post(base+"/query"+params, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query%s: HTTP %d", params, resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// TestMetricsExpositionWellFormed parses the full /metrics payload instead
// of grepping for substrings: every line must be a comment or a valid
// series, every series must belong to a family with a declared TYPE, no
// series may repeat, and every histogram must have monotonically
// non-decreasing cumulative buckets whose +Inf bucket equals its _count.
func TestMetricsExpositionWellFormed(t *testing.T) {
	ts, client, _ := newTestServer(t, Config{})
	// Exercise enough of the engine that all three parts of the scrape have
	// live series: a cached view build, an online stream with a sigma-cache,
	// some reads, and one error.
	if _, err := client.Exec(`CREATE VIEW ev AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 16 CACHE DISTANCE 0.01 FROM campus WHERE t >= 40 AND t <= 120`); err != nil {
		t.Fatal(err)
	}
	if _, err := client.OpenStream("campus", OpenStreamRequest{View: "ev_live", H: 16, Delta: 0.5, N: 8,
		SigmaMin: 1e-3, SigmaMax: 50, Distance: 0.01}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest("campus", synthJSON(161, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RangeProb("ev", 60, 0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Exec("SELECT * FROM ghost"); err == nil {
		t.Fatal("expected error for unknown table")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}

	lineRE := regexp.MustCompile(`^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})? (.+)$`)
	leRE := regexp.MustCompile(`,?le="[^"]*"`)
	typeOf := map[string]string{} // family -> counter|gauge|histogram
	seen := map[string]bool{}     // duplicate series detection
	value := map[string]float64{} // series key -> value
	lastCum := map[string]int64{} // histogram key -> last cumulative bucket
	infCum := map[string]int64{}  // histogram key -> +Inf bucket value
	series := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			if prev, ok := typeOf[f[2]]; ok {
				t.Errorf("family %s declared twice (%s, %s)", f[2], prev, f[3])
			}
			typeOf[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable series line %q", line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("series %s: bad value %q", name, valStr)
			continue
		}
		key := name + labels
		if seen[key] {
			t.Errorf("duplicate series %s", key)
		}
		seen[key] = true
		value[key] = val
		series++

		// Resolve the family: histogram series carry a suffix.
		base, suffix := name, ""
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && typeOf[strings.TrimSuffix(name, suf)] == "histogram" {
				base, suffix = strings.TrimSuffix(name, suf), suf
				break
			}
		}
		kind, ok := typeOf[base]
		if !ok {
			t.Errorf("series %s has no TYPE declaration", name)
			continue
		}
		if kind == "counter" && val < 0 {
			t.Errorf("counter %s is negative: %v", key, val)
		}
		if kind != "histogram" {
			continue
		}
		hkey := base + strings.TrimPrefix(strings.TrimSuffix(leRE.ReplaceAllString(labels, ""), "}"), "{")
		switch suffix {
		case "_bucket":
			cum := int64(val)
			if cum < lastCum[hkey] {
				t.Errorf("histogram %s: cumulative bucket decreased (%d -> %d) at %q", hkey, lastCum[hkey], cum, line)
			}
			lastCum[hkey] = cum
			if strings.Contains(labels, `le="+Inf"`) {
				infCum[hkey] = cum
			}
		case "_count":
			inf, ok := infCum[hkey]
			if !ok {
				t.Errorf("histogram %s: _count before +Inf bucket", hkey)
			} else if int64(val) != inf {
				t.Errorf("histogram %s: +Inf bucket %d != _count %d", hkey, inf, int64(val))
			}
			delete(lastCum, hkey) // next label set starts fresh
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// The scrape must cover all three layers: server routes, engine-bound
	// dynamic sections, and the process-wide tspdb_* registry.
	for _, family := range []string{
		"tspdbd_requests_total", "tspdbd_request_duration_seconds",
		"tspdbd_uptime_seconds", "tspdbd_goroutines",
		"tspdbd_sigma_cache_hits_total", "tspdbd_sigma_cache_misses_total",
		"tspdbd_streams_open",
		"tspdb_ingest_steps_total", "tspdb_ingest_step_seconds",
		"tspdb_ingest_model_seconds", "tspdb_ingest_view_seconds", "tspdb_ingest_commit_seconds",
		"tspdb_query_total", "tspdb_query_seconds",
		"tspdb_probdb_kernel_calls_total", "tspdb_view_rows_appended_total",
	} {
		if _, ok := typeOf[family]; !ok {
			t.Errorf("scrape is missing family %s", family)
		}
	}
	if series == 0 {
		t.Fatal("scrape contained no series")
	}
	// Both views are resident: 81 built tuples and 5 streamed ones, 8 rows
	// each, at no less than the columns' 32 B/row.
	const rows = (81 + 5) * 8
	if got := value["tspdb_storage_view_resident_rows"]; got != rows {
		t.Errorf("resident rows gauge = %v, want %d", got, rows)
	}
	if got := value["tspdb_storage_view_resident_bytes"]; got < 32*rows {
		t.Errorf("resident bytes gauge = %v, want at least %d", got, 32*rows)
	}
}

// TestPanicRecoveryMiddleware installs a panicking route and checks the
// contract: the client gets a JSON 500 with the request id echoed, the
// panic is logged with that id and a stack, the request is counted as a
// 500 in the route metrics, and the server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	engine := core.NewEngine()
	var logBuf bytes.Buffer
	s := New(engine, Config{Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	s.handle("GET /boom", func(w http.ResponseWriter, r *http.Request) error {
		panic("kaboom: handler bug")
	})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking route: HTTP %d, want 500", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "caller-supplied-7" {
		t.Errorf("X-Request-Id = %q, want the caller's id propagated", got)
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if body.Code != http.StatusInternalServerError || body.Error == "" {
		t.Errorf("unexpected error body: %+v", body)
	}

	logged := logBuf.String()
	for _, want := range []string{"handler panic", "kaboom", "caller-supplied-7", "stack"} {
		if !strings.Contains(logged, want) {
			t.Errorf("panic log missing %q:\n%s", want, logged)
		}
	}

	// Counted as a 500, and the server is still alive.
	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	want := `tspdbd_requests_total{code="500",route="GET /boom"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q", want)
	}
}

func TestRequestIDGenerated(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	id1 := getJSON(t, ts.URL+"/healthz", nil).Header.Get("X-Request-Id")
	id2 := getJSON(t, ts.URL+"/healthz", nil).Header.Get("X-Request-Id")
	if id1 == "" || id2 == "" {
		t.Fatalf("missing generated X-Request-Id: %q, %q", id1, id2)
	}
	if id1 == id2 {
		t.Fatalf("request ids not unique: %q", id1)
	}
}

// TestExplainStats drives ?explain=1 end to end across /query and the
// probabilistic endpoints: the view holds 81 tuples (t in [40,120]) of 8
// rows each, so a [50,60] scan must report 11 groups and 88 rows. Rows
// read: a listing reads them all, EXPECTED none (the group index holds each
// tuple's sums), a value range covering every grid all of them, one around
// a single value a few, a point kernel its tuple once per pass.
func TestExplainStats(t *testing.T) {
	ts, client, _ := newTestServer(t, Config{})
	if _, err := client.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 16 FROM campus WHERE t >= 40 AND t <= 120`); err != nil {
		t.Fatal(err)
	}

	// Plain responses stay stat-free.
	if res := postQuery(t, ts.URL, "", `SELECT * FROM pv WHERE t >= 50 AND t <= 60`); res.Stats != nil {
		t.Errorf("stats present without explain=1: %+v", res.Stats)
	}

	sel := postQuery(t, ts.URL, "?explain=1", `SELECT * FROM pv WHERE t >= 50 AND t <= 60`)
	if sel.Stats == nil {
		t.Fatal("explain=1 returned no stats")
	}
	if sel.Stats.Statement != "select" || sel.Stats.Path != "row" {
		t.Errorf("select stats = %+v, want statement=select path=row", sel.Stats)
	}
	if sel.Stats.Groups != 11 || sel.Stats.Rows != 88 || sel.Stats.RowsRead != 88 {
		t.Errorf("select scanned %d groups / %d rows, read %d, want 11 / 88 / 88", sel.Stats.Groups, sel.Stats.Rows, sel.Stats.RowsRead)
	}
	if sel.Stats.ParseNs <= 0 || sel.Stats.ExecNs <= 0 {
		t.Errorf("timings not populated: %+v", sel.Stats)
	}

	agg := postQuery(t, ts.URL, "?explain=1", `SELECT EXPECTED FROM pv WHERE t >= 50 AND t <= 60`)
	if agg.Stats == nil || agg.Stats.Path != "columnar" || agg.Stats.Groups != 11 || agg.Stats.Rows != 88 || agg.Stats.RowsRead != 0 {
		t.Errorf("aggregate stats = %+v, want columnar 11 / 88, 0 read", agg.Stats)
	}
	cnt := postQuery(t, ts.URL, "?explain=1", `SELECT COUNT(21.4, 21.6) FROM pv WHERE t >= 50 AND t <= 60`)
	if cnt.Stats == nil || cnt.Stats.Rows != 88 || cnt.Stats.RowsRead <= 0 || cnt.Stats.RowsRead >= 44 {
		t.Errorf("narrow COUNT stats = %+v, want 88 rows scanned, a few read", cnt.Stats)
	}

	var rp RangeProbResponse
	getJSON(t, ts.URL+"/views/pv/rangeprob?lo=0&hi=100&from=50&to=60&explain=1", &rp)
	if rp.Stats == nil || rp.Stats.Statement != "rangeprob" || rp.Stats.Groups != 11 || rp.Stats.Rows != 88 || rp.Stats.RowsRead != 88 {
		t.Errorf("rangeprob stats = %+v, want 11 groups / 88 rows, all read", rp.Stats)
	}

	var tk TopKResponse
	getJSON(t, ts.URL+"/views/pv/topk?t=60&k=3&explain=1", &tk)
	if tk.Stats == nil || tk.Stats.Statement != "topk" || tk.Stats.Groups != 1 || tk.Stats.Rows != 8 || tk.Stats.RowsRead != 8 {
		t.Errorf("topk stats = %+v, want 1 group / 8 rows, all read", tk.Stats)
	}

	body, _ := json.Marshal(BucketsRequest{T: 60, Buckets: []BucketJSON{{Name: "all", Lo: 0, Hi: 100}, {Name: "none", Lo: -2, Hi: -1}}})
	resp, err := http.Post(ts.URL+"/views/pv/buckets?explain=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bk BucketsResponse
	if err := json.NewDecoder(resp.Body).Decode(&bk); err != nil {
		t.Fatal(err)
	}
	if bk.Stats == nil || bk.Stats.Statement != "buckets" || bk.Stats.Groups != 1 || bk.Stats.Rows != 8 || bk.Stats.RowsRead != 16 {
		t.Errorf("buckets stats = %+v, want 1 group / 8 rows, read once per bucket", bk.Stats)
	}
}

// TestDebugHandler exercises the -debug-addr surface: /debug/obs must dump
// both registries as JSON and /debug/pprof/ must index the profiles.
func TestDebugHandler(t *testing.T) {
	engine := core.NewEngine()
	s := New(engine, Config{})
	// One request through the serving mux so the route families exist.
	srv := httptest.NewServer(s)
	defer srv.Close()
	getJSON(t, srv.URL+"/healthz", nil)

	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	var dump []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	getJSON(t, dbg.URL+"/debug/obs", &dump)
	found := map[string]bool{}
	for _, f := range dump {
		found[f.Name] = true
	}
	for _, want := range []string{"tspdbd_requests_total", "tspdbd_uptime_seconds", "tspdb_query_seconds"} {
		if !found[want] {
			t.Errorf("/debug/obs missing family %s (got %d families)", want, len(dump))
		}
	}

	resp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: HTTP %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "goroutine") {
		t.Errorf("pprof index does not list profiles")
	}
}

// TestSlowQueryLogged checks the slow-request log: with a 1ns threshold
// every request is "slow" and must be logged with route and request id.
func TestSlowQueryLogged(t *testing.T) {
	engine := core.NewEngine()
	var logBuf bytes.Buffer
	s := New(engine, Config{
		Logger:    slog.New(slog.NewTextHandler(&logBuf, nil)),
		SlowQuery: 1, // 1ns: everything is slow
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	id := getJSON(t, ts.URL+"/healthz", nil).Header.Get("X-Request-Id")
	logged := logBuf.String()
	for _, want := range []string{"slow request", "GET /healthz", fmt.Sprintf("request_id=%s", id)} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow-query log missing %q:\n%s", want, logged)
		}
	}
}
