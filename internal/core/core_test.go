package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/density"
	"repro/internal/timeseries"
	"repro/internal/view"
)

func arSeries(n int, seed int64) *timeseries.Series {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := 1; i < n; i++ {
		vs[i] = 0.85*vs[i-1] + rng.NormFloat64()
	}
	return timeseries.FromValues(vs)
}

func TestEngineOfflineEndToEnd(t *testing.T) {
	e := NewEngine()
	if err := e.RegisterSeries("raw_values", arSeries(400, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := e.Exec(`CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.5, n=6 WINDOW 90 CACHE DISTANCE 0.01
		FROM raw_values WHERE t >= 100 AND t <= 200`)
	if err != nil {
		t.Fatal(err)
	}
	if res.View == nil || res.View.NumRows() != 101*6 {
		t.Fatalf("view = %+v", res.View)
	}
	pv, err := e.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if pv.MetricName != "ARMA-GARCH" {
		t.Errorf("metric = %q", pv.MetricName)
	}
	// SELECT through the engine.
	sel, err := e.Exec("SELECT * FROM pv WHERE t = 150")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 6 {
		t.Errorf("select rows = %d", len(sel.Rows))
	}
}

func TestEngineRegisterTableCustomColumns(t *testing.T) {
	e := NewEngine()
	if err := e.RegisterTable("sensors", "time", "temp", arSeries(200, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("CREATE VIEW v AS DENSITY temp OVER time OMEGA delta=1, n=2 WINDOW 90 FROM sensors WHERE time >= 100 AND time <= 110"); err != nil {
		t.Fatal(err)
	}
}

func TestEngineOnlineStream(t *testing.T) {
	e := NewEngine()
	full := arSeries(300, 3)
	warm, err := full.Slice(0, 90)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterSeries("live", warm); err != nil {
		t.Fatal(err)
	}
	stream, err := e.OpenStream(StreamConfig{
		Source:   "live",
		ViewName: "live_view",
		Omega:    view.Omega{Delta: 0.5, N: 4},
		H:        90,
		SigmaRange: &SigmaRange{
			Min: 0.1, Max: 50, DistanceConstraint: 0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.MetricName() != "ARMA-GARCH" {
		t.Errorf("default metric = %q", stream.MetricName())
	}
	for i := 90; i < 200; i++ {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stream.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("step %d: %d rows", i, len(rows))
		}
	}
	// The materialised view grew.
	pv, err := e.View("live_view")
	if err != nil {
		t.Fatal(err)
	}
	if pv.NumRows() != 110*4 {
		t.Errorf("view rows = %d, want %d", pv.NumRows(), 110*4)
	}
	// The raw table grew too.
	raw, err := e.DB().RawTable("live")
	if err != nil {
		t.Fatal(err)
	}
	if raw.Series.Len() != 200 {
		t.Errorf("raw length = %d", raw.Series.Len())
	}
	// The cache should have been exercised.
	if stream.CacheStats().Hits == 0 {
		t.Error("online cache never hit")
	}
}

// TestPlainStreamMatchesOfflineBuild checks that the online mode and the
// offline mode run one pipeline (Section II-A): every row a plain stream
// emits, sigma-cache path included, equals bit for bit the row an offline
// build of the same series emits for that time step.
func TestPlainStreamMatchesOfflineBuild(t *testing.T) {
	const h, warmLen, steps = 90, 100, 150
	full := arSeries(warmLen+steps, 7)
	warm, err := full.Slice(0, warmLen)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	if err := e.RegisterSeries("live", warm); err != nil {
		t.Fatal(err)
	}
	metric, _ := density.NewARMAGARCH(1, 0)
	stream, err := e.OpenStream(StreamConfig{
		Source: "live", ViewName: "live_view", Metric: metric, H: h,
		Omega:      view.Omega{Delta: 0.5, N: 8},
		SigmaRange: &SigmaRange{Min: 0.9, Max: 1.1, DistanceConstraint: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []view.Row
	for i := warmLen; i < full.Len(); i++ {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := stream.Step(p)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
	}
	times := full.Times()
	tuples, err := view.TuplesFromSeries(full, metric, h, times[warmLen], times[len(times)-1], 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.builder.Generate(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("stream emitted %d rows, offline build %d", len(got), len(want.Rows))
	}
	for i, g := range got {
		w := want.Rows[i]
		if g.T != w.T || g.Lambda != w.Lambda || math.Float64bits(g.Lo) != math.Float64bits(w.Lo) ||
			math.Float64bits(g.Hi) != math.Float64bits(w.Hi) || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("row %d: stream %+v, offline %+v", i, g, w)
		}
	}
	if st := stream.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats %+v: want both the cache and the direct path exercised", st)
	}
}

func TestOpenStreamValidation(t *testing.T) {
	e := NewEngine()
	_ = e.RegisterSeries("small", arSeries(10, 4))
	if _, err := e.OpenStream(StreamConfig{Source: "missing", ViewName: "v", Omega: view.Omega{Delta: 1, N: 2}}); err == nil {
		t.Error("missing source accepted")
	}
	if _, err := e.OpenStream(StreamConfig{Source: "small", ViewName: "v", Omega: view.Omega{Delta: 1, N: 2}}); !errors.Is(err, ErrBadArg) {
		t.Error("insufficient warm-up accepted")
	}
	_ = e.RegisterSeries("big", arSeries(200, 5))
	if _, err := e.OpenStream(StreamConfig{Source: "big", ViewName: "", Omega: view.Omega{Delta: 1, N: 2}}); !errors.Is(err, ErrBadArg) {
		t.Error("empty view name accepted")
	}
	if _, err := e.OpenStream(StreamConfig{Source: "big", ViewName: "v", Omega: view.Omega{Delta: 0, N: 2}}); err == nil {
		t.Error("bad omega accepted")
	}
}

func TestOpenStreamWithCleaning(t *testing.T) {
	e := NewEngine()
	full := arSeries(400, 9)
	warm, err := full.Slice(0, 90)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterSeries("dirty", warm); err != nil {
		t.Fatal(err)
	}
	stream, err := e.OpenStream(StreamConfig{
		Source:   "dirty",
		ViewName: "clean_view",
		Omega:    view.Omega{Delta: 0.5, N: 4},
		H:        90,
		Clean:    &CleanStreamConfig{OCMax: 8, SVMax: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawErroneous := false
	for i := 90; i < 250; i++ {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 150 {
			p.V = 1e4 // inject a gross outlier mid-stream
		}
		res, err := stream.StepDetailed(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("step %d: %d rows", i, len(res.Rows))
		}
		if i == 150 {
			if !res.Erroneous {
				t.Error("outlier not marked erroneous")
			}
			if res.Cleaned == 1e4 {
				t.Error("outlier admitted uncleaned")
			}
			sawErroneous = true
		}
	}
	if !sawErroneous {
		t.Fatal("outlier step never reached")
	}
	// Non-increasing timestamps rejected on the cleaned path too, with the
	// distinct conflict sentinel.
	if _, err := stream.Step(timeseries.Point{T: 1, V: 0}); !errors.Is(err, ErrOutOfOrder) {
		t.Error("non-increasing timestamp accepted")
	}
}

func TestOpenStreamCustomMetric(t *testing.T) {
	e := NewEngine()
	_ = e.RegisterSeries("live", arSeries(200, 6))
	vt, err := density.NewVariableThresholding(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := e.OpenStream(StreamConfig{
		Source: "live", ViewName: "v", Metric: vt,
		Omega: view.Omega{Delta: 1, N: 2}, H: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stream.MetricName() != "VT" {
		t.Errorf("metric = %q", stream.MetricName())
	}
	if _, err := stream.Step(timeseries.Point{T: 201, V: 0}); err != nil {
		t.Fatal(err)
	}
}
