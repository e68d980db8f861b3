package server

import (
	"math"
	"net/http"
	"testing"

	"repro/internal/probdb"
)

// TestSeriesEndpoint checks the fused /series surface against the standalone
// kernels: one request's expected/prob/count must equal what the independent
// endpoints and kernels report.
func TestSeriesEndpoint(t *testing.T) {
	ts, client, engine := newTestServer(t, Config{})
	if _, err := client.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 16 FROM campus WHERE t >= 40 AND t <= 120`); err != nil {
		t.Fatal(err)
	}
	pv, err := engine.View("pv")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := client.Series("pv", "", 0, 100, 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Expected) != 11 || len(resp.Prob) != 11 || resp.Count == nil {
		t.Fatalf("series response shape: %d expected, %d prob, count %v",
			len(resp.Expected), len(resp.Prob), resp.Count)
	}

	wantE, _, err := probdb.ExpectedSeriesPar(pv, 50, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantP, _, err := probdb.ProbSeriesPar(pv, 50, 60, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantC, _, err := probdb.ExpectedCountPar(pv, 50, 60, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range resp.Expected {
		if pt.T != wantE[i].T || pt.Value != wantE[i].Value {
			t.Fatalf("expected[%d] = %+v, want %+v", i, pt, wantE[i])
		}
	}
	for i, pt := range resp.Prob {
		if pt.T != wantP[i].T || pt.Value != wantP[i].Value {
			t.Fatalf("prob[%d] = %+v, want %+v", i, pt, wantP[i])
		}
	}
	if *resp.Count != wantC {
		t.Fatalf("count = %v, want %v", *resp.Count, wantC)
	}
	if resp.Lo == nil || resp.Hi == nil || *resp.Lo != 0 || *resp.Hi != 100 {
		t.Errorf("echoed range = %v/%v", resp.Lo, resp.Hi)
	}

	// Single-statistic selection drops the others from the payload.
	resp, err = client.Series("pv", "expected", 0, 0, 50, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Expected) != 11 || resp.Prob != nil || resp.Count != nil {
		t.Fatalf("stats=expected response: %+v", resp)
	}

	// Explain attaches the scan plan.
	var explained SeriesResponse
	getJSON(t, ts.URL+"/views/pv/series?lo=0&hi=100&from=50&to=60&explain=1", &explained)
	st := explained.Stats
	if st == nil {
		t.Fatal("explain=1 returned no stats")
	}
	if st.Statement != "series" || st.Path != "fused" {
		t.Errorf("stats = %+v, want statement=series path=fused", st)
	}
	if st.Groups != 11 || st.Rows != 88 || st.RowsRead != 88 {
		t.Errorf("scanned %d groups / %d rows, read %d; want 11 / 88 / 88", st.Groups, st.Rows, st.RowsRead)
	}
	// The window sits far below the parallel cutoff: sequential fast path.
	if st.Workers != 1 || st.Chunks != 1 {
		t.Errorf("plan = %d workers / %d chunks, want 1 / 1", st.Workers, st.Chunks)
	}
	if explained.Count == nil || math.IsNaN(*explained.Count) {
		t.Errorf("explained response lost the payload: %+v", explained)
	}
}

func TestSeriesEndpointErrors(t *testing.T) {
	ts, client, _ := newTestServer(t, Config{})
	if _, err := client.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8 WINDOW 16 FROM campus WHERE t >= 40 AND t <= 120`); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, url string
		want      int
	}{
		{"unknown stat", "/views/pv/series?stats=median&lo=0&hi=1", http.StatusBadRequest},
		{"prob without range", "/views/pv/series?stats=prob", http.StatusBadRequest},
		{"count without range", "/views/pv/series?stats=count", http.StatusBadRequest},
		{"inverted range", "/views/pv/series?lo=5&hi=-5", http.StatusBadRequest},
		{"empty window", "/views/pv/series?lo=0&hi=100&from=9000&to=9100", http.StatusNotFound},
		{"missing view", "/views/nope/series?lo=0&hi=100", http.StatusNotFound},
		{"expected only needs no range", "/views/pv/series?stats=expected&from=50&to=60", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
