package repro_test

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/dataset"
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
		// Quantiles must be monotone and inside the covered span.
		q25, err := repro.Quantile(rows, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		q75, err := repro.Quantile(rows, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		if q25 > q75 {
			t.Fatalf("t=%d: quantile crossing %v > %v", tm, q25, q75)
		}
		if q25 < rows[0].Lo-1e-9 || q75 > rows[len(rows)-1].Hi+1e-9 {
			t.Fatalf("t=%d: quantiles outside covered span", tm)
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

func TestIntegrationSaveLoadPreservesQueries(t *testing.T) {
	engine := repro.NewEngine()
	campus := dataset.Campus(dataset.CampusConfig{N: 300})
	if err := engine.RegisterSeries("raw_values", campus); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.5, n=8 WINDOW 90 FROM raw_values WHERE t >= 100 AND t <= 150`); err != nil {
		t.Fatal(err)
	}
	before, err := engine.Exec("SELECT EXPECTED FROM pv WHERE t >= 100 AND t <= 150")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := engine.DB().Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := repro.NewEngine()
	if err := restored.DB().Load(&buf); err != nil {
		t.Fatal(err)
	}
	after, err := restored.Exec("SELECT EXPECTED FROM pv WHERE t >= 100 AND t <= 150")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != len(after.Rows) {
		t.Fatalf("row counts differ after restore: %d vs %d", len(before.Rows), len(after.Rows))
	}
	for i := range before.Rows {
		if before.Rows[i][1] != after.Rows[i][1] {
			t.Fatalf("row %d differs after restore", i)
		}
	}
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
