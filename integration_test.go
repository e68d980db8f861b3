package repro_test

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/dataset"
	"repro/internal/probdb"
)

// End-to-end invariants that cut across modules: whatever the data and the
// parameters, a created probabilistic database must be internally coherent.

func TestIntegrationViewMassInvariants(t *testing.T) {
	engine := repro.NewEngine()
	campus := dataset.Campus(dataset.CampusConfig{N: 400})
	if err := engine.RegisterSeries("raw_values", campus); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.25, n=24 WINDOW 90
		FROM raw_values WHERE t >= 100 AND t <= 300`)
	if err != nil {
		t.Fatal(err)
	}
	pv := res.View
	for _, tm := range pv.Times() {
		rows := pv.RowsAt(tm)
		total := 0.0
		prevHi := math.Inf(-1)
		for _, r := range rows {
			if r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("t=%d: probability %v outside [0,1]", tm, r.Prob)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("t=%d: empty range [%v, %v]", tm, r.Lo, r.Hi)
			}
			if prevHi != math.Inf(-1) && math.Abs(r.Lo-prevHi) > 1e-9 {
				t.Fatalf("t=%d: ranges not contiguous (%v then %v)", tm, prevHi, r.Lo)
			}
			prevHi = r.Hi
			total += r.Prob
		}
		if total > 1+1e-9 {
			t.Fatalf("t=%d: total mass %v > 1", tm, total)
		}
		// 24 ranges of 0.25 cover +-3 units around r̂; with kappa=3 the mass
		// should be substantial unless volatility is very high.
		if total < 0.05 {
			t.Fatalf("t=%d: total mass %v suspiciously low", tm, total)
		}
	}
}

func TestIntegrationCacheMatchesNaiveWithinTolerance(t *testing.T) {
	// The same query with and without the sigma-cache must produce views
	// whose per-range probabilities differ by at most the amount implied by
	// the Hellinger constraint.
	car := dataset.Car(dataset.CarConfig{N: 500})

	build := func(cache string) []repro.Row {
		engine := repro.NewEngine()
		if err := engine.RegisterSeries("raw_values", car); err != nil {
			t.Fatal(err)
		}
		res, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t
			OMEGA delta=2, n=20 WINDOW 90 ` + cache + `
			FROM raw_values WHERE t >= 150 AND t <= 400`)
		if err != nil {
			t.Fatal(err)
		}
		return res.View.SnapshotRows()
	}
	naive := build("")
	cached := build("CACHE DISTANCE 0.005")
	if len(naive) != len(cached) {
		t.Fatalf("row counts differ: %d vs %d", len(naive), len(cached))
	}
	maxDiff := 0.0
	for i := range naive {
		d := math.Abs(naive[i].Prob - cached[i].Prob)
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.01 {
		t.Errorf("max per-range deviation %v for H'=0.005", maxDiff)
	}
}

// TestIntegrationSaveLoadPreservesQueries saves a catalog the one way the
// engine persists it — Close checkpoints the data directory into segments —
// and loads it back by reopening the directory: query answers over the
// reopened view must be identical to the ones before, cell for cell, and the
// expected series under them bit for bit.
func TestIntegrationSaveLoadPreservesQueries(t *testing.T) {
	dir := t.TempDir()
	engine, err := repro.OpenEngine(repro.EngineConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	campus := dataset.Campus(dataset.CampusConfig{N: 300})
	if err := engine.RegisterSeries("raw_values", campus); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.5, n=8 WINDOW 90 FROM raw_values WHERE t >= 100 AND t <= 150`); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT EXPECTED FROM pv WHERE t >= 100 AND t <= 150"
	before, err := engine.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	beforeSeries := expectedSeries(t, engine)
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := repro.OpenEngine(repro.EngineConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	after, err := restored.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) == 0 || !reflect.DeepEqual(before.Rows, after.Rows) {
		t.Fatalf("answers differ after reopen:\n before %q\n after  %q", before.Rows, after.Rows)
	}
	afterSeries := expectedSeries(t, restored)
	if len(afterSeries) != len(beforeSeries) {
		t.Fatalf("expected series has %d points after reopen, %d before", len(afterSeries), len(beforeSeries))
	}
	for i, b := range beforeSeries {
		if a := afterSeries[i]; a.T != b.T || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Fatalf("point %d after reopen = %+v, before %+v", i, a, b)
		}
	}
}

func expectedSeries(t *testing.T, e *repro.Engine) []probdb.TimeSeriesPoint {
	t.Helper()
	pv, err := e.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := probdb.ExpectedSeriesPar(pv, 100, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Property: for random AR-ish series and random omega parameters, the
// pipeline completes and every generated probability is a valid probability.
func TestQuickPipelineAlwaysValid(t *testing.T) {
	f := func(seed int64, deltaRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		vs := make([]float64, 200)
		for i := 1; i < len(vs); i++ {
			vs[i] = 0.7*vs[i-1] + rng.NormFloat64()
		}
		delta := 0.1 + float64(deltaRaw%50)/10
		n := 2 + 2*int(nRaw%10)

		engine := repro.NewEngine()
		if err := engine.RegisterSeries("raw_values", repro.FromValues(vs)); err != nil {
			return false
		}
		res, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t
			OMEGA delta=` + formatG(delta) + `, n=` + formatD(n) + `
			METRIC VT WINDOW 60 FROM raw_values WHERE t >= 100 AND t <= 120`)
		if err != nil {
			return false
		}
		for _, r := range res.View.SnapshotRows() {
			if r.Prob < 0 || r.Prob > 1 || math.IsNaN(r.Prob) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func formatG(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatD(v int) string {
	return strconv.Itoa(v)
}
