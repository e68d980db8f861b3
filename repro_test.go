package repro_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func arValues(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := 1; i < n; i++ {
		vs[i] = 10 + 0.8*(vs[i-1]-10) + rng.NormFloat64()
	}
	vs[0] = 10
	return vs
}

func TestPublicAPIOfflinePipeline(t *testing.T) {
	engine := repro.NewEngine()
	if err := engine.RegisterSeries("raw_values", repro.FromValues(arValues(400, 1))); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(`CREATE VIEW prob_view AS DENSITY r OVER t
		OMEGA delta=0.5, n=8 WINDOW 90 CACHE DISTANCE 0.01
		FROM raw_values WHERE t >= 100 AND t <= 200`)
	if err != nil {
		t.Fatal(err)
	}
	pv := res.View
	if pv == nil {
		t.Fatal("no view returned")
	}
	rows := pv.RowsAt(150)
	if len(rows) != 8 {
		t.Fatalf("rows at t=150: %d", len(rows))
	}

	// Probabilistic queries over the created database.
	top, err := repro.TopK(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].Prob <= 0 {
		t.Error("top range has zero probability")
	}
	exp, err := repro.Expected(rows)
	if err != nil {
		t.Fatal(err)
	}
	if exp < 0 || exp > 25 {
		t.Errorf("expected value %v implausible", exp)
	}
	total := 0.0
	for _, r := range rows {
		total += r.Prob
	}
	if total <= 0 || total > 1+1e-9 {
		t.Errorf("total range probability %v", total)
	}
}

// TestPublicAPIMetricConstructors builds one view per dynamic density
// metric through the METRIC clause, the facade's way to choose a metric;
// C-GARCH takes its variance threshold from LearnSVMax.
func TestPublicAPIMetricConstructors(t *testing.T) {
	vals := arValues(300, 2)
	svMax, err := repro.LearnSVMax(vals[:100], 8)
	if err != nil {
		t.Fatal(err)
	}
	engine := repro.NewEngine()
	if err := engine.RegisterSeries("raw_values", repro.FromValues(vals)); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"UT(u=2)", "VT", "ARMA_GARCH", "KALMAN_GARCH", fmt.Sprintf("CGARCH(svmax=%g)", svMax)} {
		res, err := engine.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=8
			METRIC ` + metric + ` WINDOW 90 FROM raw_values WHERE t >= 200 AND t <= 210`)
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if n := res.View.NumRows(); n != 11*8 {
			t.Errorf("%s: %d view rows, want %d", metric, n, 11*8)
		}
		if _, err := engine.Exec("DROP TABLE pv"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPIBucketQuery(t *testing.T) {
	engine := repro.NewEngine()
	if err := engine.RegisterSeries("track", repro.FromValues(arValues(300, 3))); err != nil {
		t.Fatal(err)
	}
	res, err := engine.Exec(`CREATE VIEW pos AS DENSITY r OVER t
		OMEGA delta=1, n=8 WINDOW 90 FROM track WHERE t >= 150 AND t <= 150`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.View.RowsAt(150)
	rooms := []repro.Bucket{
		{Name: "room1", Lo: -100, Hi: 8},
		{Name: "room2", Lo: 8, Hi: 12},
		{Name: "room3", Lo: 12, Hi: 100},
	}
	ps, err := repro.BucketQuery(rows, rooms)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("%d bucket rows", len(ps))
	}
	best, err := repro.MostLikelyBucket(rows, rooms)
	if err != nil {
		t.Fatal(err)
	}
	if best.Bucket.Name != ps[0].Bucket.Name {
		t.Error("MostLikelyBucket disagrees with BucketQuery")
	}
}

func TestPublicAPIOnlineStream(t *testing.T) {
	engine := repro.NewEngine()
	vals := arValues(150, 4)
	if err := engine.RegisterSeries("live", repro.FromValues(vals[:90])); err != nil {
		t.Fatal(err)
	}
	stream, err := engine.OpenStream(repro.StreamConfig{
		Source:   "live",
		ViewName: "live_view",
		Omega:    repro.Omega{Delta: 0.5, N: 4},
		H:        90,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 90; i < 150; i++ {
		rows, err := stream.Step(repro.Point{T: int64(i + 1), V: vals[i]})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("step %d: %d rows", i, len(rows))
		}
	}
	pv, err := engine.View("live_view")
	if err != nil {
		t.Fatal(err)
	}
	if pv.NumRows() != 60*4 {
		t.Errorf("view rows = %d", pv.NumRows())
	}
}

func TestPublicAPISeriesCSV(t *testing.T) {
	s, err := repro.ReadSeriesCSV(strings.NewReader("t,value\n1,1.5\n2,2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

// TestReadmeQuickstartIsExample pins README's quickstart to
// examples/quickstart: its go block must be a verbatim excerpt of main.go,
// so the documented program is one that builds and runs.
func TestReadmeQuickstartIsExample(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("examples", "quickstart", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Quickstart\n")
	if !ok {
		t.Fatal("README has no Quickstart section")
	}
	_, block, ok := strings.Cut(section, "```go\n")
	if !ok {
		t.Fatal("README's Quickstart has no go block")
	}
	block, _, ok = strings.Cut(block, "```\n")
	if !ok || strings.TrimSpace(block) == "" {
		t.Fatal("README's Quickstart go block is empty or unterminated")
	}
	if !strings.Contains(string(src), block) {
		t.Errorf("README's Quickstart is not an excerpt of examples/quickstart/main.go:\n%s", block)
	}
}
