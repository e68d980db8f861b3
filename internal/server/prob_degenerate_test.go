package server

import (
	"errors"
	"math"
	"net/http"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// TestRangeProbZeroWidthRowOverHTTP pins the acceptance criterion end to
// end: a view holding a degenerate zero-width Omega row (a point mass)
// answers /rangeprob with a finite probability — the mass is counted, not
// divided by its zero width into NaN or silently dropped.
func TestRangeProbZeroWidthRowOverHTTP(t *testing.T) {
	_, client, engine := newTestServer(t, Config{})
	pv := storage.NewProbTable(storage.ViewMeta{
		Name: "degenerate", Source: "campus", MetricName: "TEST",
		Omega: view.Omega{Delta: 1, N: 2},
	}, []view.Row{
		{T: 7, Lambda: -1, Lo: 4, Hi: 4, Prob: 0.25}, // point mass at 4
		{T: 7, Lambda: 0, Lo: 4, Hi: 5, Prob: 0.75},
		{T: 8, Lambda: -1, Lo: 4, Hi: 4, Prob: 1}, // tuple of only a point mass
	})
	if err := engine.DB().StoreView(pv); err != nil {
		t.Fatal(err)
	}

	// Point query: both the interval mass and the point mass count.
	p, err := client.RangeProb("degenerate", 7, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Fatalf("rangeprob = %v: non-finite leaked to the client", p)
	}
	if math.Abs(p-1) > 1e-12 {
		t.Fatalf("rangeprob = %v, want 1 (point mass counted)", p)
	}

	// A tuple holding only a point mass must still answer finitely.
	p, err = client.RangeProb("degenerate", 8, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || p != 1 {
		t.Fatalf("point-mass-only tuple: rangeprob = %v, want 1", p)
	}

	// Half-open semantics at the mass: (4, 10] excludes the mass at 4.
	p, err = client.RangeProb("degenerate", 8, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || p != 0 {
		t.Fatalf("(4,10] over mass at 4: rangeprob = %v, want 0", p)
	}

	// The series path runs through the same guard, one indexed pass.
	resp := RangeProbResponse{}
	if err := client.do("GET", "/views/degenerate/rangeprob?from=0&to=100&lo=0&hi=10", nil, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Series) != 2 {
		t.Fatalf("series has %d points, want 2", len(resp.Series))
	}
	for _, pt := range resp.Series {
		if math.IsNaN(pt.Value) || math.IsInf(pt.Value, 0) {
			t.Fatalf("series t=%d: non-finite %v", pt.T, pt.Value)
		}
	}

	// An inverted time range answers 404 (no tuples), never a panic.
	var apiErr *APIError
	err = client.do("GET", "/views/degenerate/rangeprob?from=8&to=7&lo=0&hi=10", nil, &resp)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("inverted range: got %v, want 404", err)
	}
}
