package view

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/density"
	"repro/internal/dist"
	"repro/internal/timeseries"
)

// inferWorkers are the pool sizes every inference test runs: sequential,
// the smallest pool, more workers than cores, and all cores.
var inferWorkers = []int{1, 2, 7, runtime.GOMAXPROCS(0)}

// parityMetrics returns one value of each dynamic density metric, C-GARCH
// included.
func parityMetrics(t *testing.T) []density.Metric {
	t.Helper()
	ut, err := density.NewUniformThresholding(1, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := density.NewVariableThresholding(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []density.Metric{ut, vt, ag, density.NewKalmanGARCH(),
		&clean.Metric{Inner: ag, SVMax: 0.5}}
}

// waitGoroutines fails the test unless the goroutine count returns to want:
// a worker that outlives its TuplesFromSeries call has leaked.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInferParity is the determinism contract of the inference pool: for
// every metric and worker count, on a campus slice whose [tLo, tHi] cuts
// both ends of the window range, every tuple's (T, r̂, σ̂) matches the
// sequential run bit for bit. Run under -race it also proves the pool is
// data-race free on a shared metric value.
func TestInferParity(t *testing.T) {
	const h = 90
	campus := dataset.Campus(dataset.CampusConfig{N: 200})
	tLo, tHi := int64(121), int64(160)
	base := runtime.NumGoroutine()
	for _, m := range parityMetrics(t) {
		want, err := TuplesFromSeries(campus, m, h, tLo, tHi, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(want) != int(tHi-tLo+1) || want[0].T != tLo || want[len(want)-1].T != tHi {
			t.Fatalf("%s: %d tuples over [%d, %d]", m.Name(), len(want), tLo, tHi)
		}
		for _, workers := range inferWorkers {
			got, err := TuplesFromSeries(campus, m, h, tLo, tHi, 1, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d tuples, want %d", m.Name(), workers, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.T != w.T || math.Float64bits(g.RHat) != math.Float64bits(w.RHat) ||
					math.Float64bits(g.Sigma) != math.Float64bits(w.Sigma) {
					t.Fatalf("%s workers=%d tuple %d: (%d, %v, %v), want (%d, %v, %v)",
						m.Name(), workers, i, g.T, g.RHat, g.Sigma, w.T, w.RHat, w.Sigma)
				}
			}
		}
	}
	waitGoroutines(t, base, "after successful builds")
}

// failingMetric fails on the two windows whose last value is slow or fast;
// the series below makes a window's last value its end index. The slow
// (earlier) window sleeps first, so on a pool the later failure lands
// first.
type failingMetric struct{ slow, fast float64 }

func (failingMetric) Name() string   { return "failing" }
func (failingMetric) MinWindow() int { return 1 }
func (m failingMetric) Infer(w []float64) (*density.Inference, error) {
	last := w[len(w)-1]
	switch last {
	case m.slow:
		time.Sleep(5 * time.Millisecond)
		return nil, fmt.Errorf("window ending at %v", last)
	case m.fast:
		return nil, fmt.Errorf("window ending at %v", last)
	}
	return &density.Inference{RHat: last, Sigma: 1}, nil
}

// TestInferErrorOrder checks that every worker count returns the error of
// the lowest failing window, the one a sequential run stops at, and that no
// worker outlives a failed call.
func TestInferErrorOrder(t *testing.T) {
	vs := make([]float64, 500)
	for i := range vs {
		vs[i] = float64(i)
	}
	s := timeseries.FromValues(vs)
	m := failingMetric{slow: 100, fast: 103}
	base := runtime.NumGoroutine()
	for _, workers := range inferWorkers {
		_, err := TuplesFromSeries(s, m, 10, 0, 1000, 1, workers)
		if err == nil || err.Error() != "window ending at 100" {
			t.Fatalf("workers=%d: err = %v, want the window ending at 100", workers, err)
		}
	}
	waitGoroutines(t, base, "after failed builds")
}

// TestInferSmallBatches checks the worker-count clamp: ranges with fewer
// windows than workers (including one, and none) still build.
func TestInferSmallBatches(t *testing.T) {
	vs := make([]float64, 40)
	for i := range vs {
		vs[i] = float64(i)
	}
	s := timeseries.FromValues(vs)
	m := failingMetric{slow: -1, fast: -1}
	for _, n := range []int{0, 1, 2, 5} {
		tuples, err := TuplesFromSeries(s, m, 10, 20, int64(19+n), 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != n {
			t.Fatalf("n=%d: got %d tuples", n, len(tuples))
		}
		for k, tp := range tuples {
			// Tuple t is inferred from values t-10 .. t-1; value i is at t=i+1.
			if tp.T != int64(20+k) || tp.RHat != float64(tp.T-2) {
				t.Fatalf("n=%d tuple %d: t=%d r̂=%v", n, k, tp.T, tp.RHat)
			}
		}
	}
	if _, err := TuplesFromSeries(s, m, 40, 0, 100, 1, 8); !errors.Is(err, timeseries.ErrBadWindow) {
		t.Fatalf("H = series length: err = %v, want ErrBadWindow", err)
	}
}

// recordingMetric records a copy of every window it infers, keyed by the
// window's last value, and returns that value as r̂.
type recordingMetric struct {
	mu      sync.Mutex
	windows map[float64][]float64
}

func (*recordingMetric) Name() string   { return "recording" }
func (*recordingMetric) MinWindow() int { return 1 }
func (m *recordingMetric) Infer(w []float64) (*density.Inference, error) {
	last := w[len(w)-1]
	m.mu.Lock()
	m.windows[last] = append([]float64(nil), w...)
	m.mu.Unlock()
	return &density.Inference{RHat: last, Sigma: 1}, nil
}

// TestInferWindows pins what TuplesFromSeries feeds the metric: tuple k of
// a range infers series index i from exactly values[i-h:i], carries
// times[i], and i runs over every stride-th index of [tLo, tHi] from the
// first. No other window is inferred, and every worker count returns the
// same tuples.
func TestInferWindows(t *testing.T) {
	const h, n = 5, 40
	pts := make([]timeseries.Point, n)
	for i := range pts {
		pts[i] = timeseries.Point{T: int64(10*i + 3), V: 1000 + 1.5*float64(i)}
	}
	s, err := timeseries.New(pts)
	if err != nil {
		t.Fatal(err)
	}
	times, values := s.Times(), s.Values()
	ranges := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{0, 200},   // cuts the top; the bottom starts at index h
		{122, 301}, // bounds between timestamps: indexes 12 .. 29
		{500, 600}, // past the end
	}
	for _, rg := range ranges {
		for _, stride := range []int{1, 2, 5, n} {
			var want []int // series indexes the tuples predict
			for i := h; i < n; i++ {
				if times[i] >= rg[0] && times[i] <= rg[1] && (len(want) == 0 || i-want[0] == len(want)*stride) {
					want = append(want, i)
				}
			}
			var first []Tuple
			for _, workers := range []int{1, 2, 7} {
				m := &recordingMetric{windows: make(map[float64][]float64)}
				tuples, err := TuplesFromSeries(s, m, h, rg[0], rg[1], stride, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(tuples) != len(want) || len(m.windows) != len(want) {
					t.Fatalf("range %v stride %d workers %d: %d tuples from %d windows, want %d",
						rg, stride, workers, len(tuples), len(m.windows), len(want))
				}
				for k, i := range want {
					tp := tuples[k]
					if tp.T != times[i] || tp.RHat != values[i-1] {
						t.Fatalf("range %v stride %d workers %d tuple %d: t=%d r̂=%v, want t=%d r̂=%v",
							rg, stride, workers, k, tp.T, tp.RHat, times[i], values[i-1])
					}
					if w := m.windows[values[i-1]]; !reflect.DeepEqual(w, values[i-h:i]) {
						t.Fatalf("range %v stride %d tuple %d: window %v, want %v", rg, stride, k, w, values[i-h:i])
					}
				}
				if workers == 1 {
					first = tuples
				} else if !reflect.DeepEqual(tuples, first) {
					t.Fatalf("range %v stride %d: workers %d differ from the sequential run", rg, stride, workers)
				}
			}
		}
	}
}

// mixedTuples returns tuples exercising every generation path: Gaussian
// (cache-eligible), nil-Dist Gaussian, and uniform (naive-only).
func mixedTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Tuple, n)
	for i := range out {
		sigma := 0.5 + 2*rng.Float64()
		mu := 10 + rng.NormFloat64()
		switch i % 3 {
		case 0:
			d, _ := dist.NewNormal(mu, sigma)
			out[i] = Tuple{T: int64(i + 1), RHat: mu, Sigma: sigma, Dist: d}
		case 1:
			out[i] = Tuple{T: int64(i + 1), RHat: mu, Sigma: sigma}
		default:
			half := sigma * math.Sqrt(3)
			u, _ := dist.NewUniform(mu-half, mu+half)
			out[i] = Tuple{T: int64(i + 1), RHat: mu, Sigma: sigma, Dist: u}
		}
	}
	return out
}

// TestConcurrentBuilders runs independent Generate calls on builders sharing
// one cache from many goroutines — the engine-level usage pattern when
// several CREATE VIEW statements run at once.
func TestConcurrentBuilders(t *testing.T) {
	tuples := mixedTuples(300, 11)
	omega := Omega{Delta: 0.25, N: 8}
	shared, err := NewBuilder(omega)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shared.AttachCache(tuples, 0.01, 0); err != nil {
		t.Fatal(err)
	}
	want, err := shared.Generate(tuples)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := &Builder{Omega: omega, Cache: shared.Cache}
			v, err := b.Generate(tuples)
			if err == nil && !reflect.DeepEqual(v.Rows, want.Rows) {
				err = ErrBadArg
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
