// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment, at the Quick scale so `go test -bench=.`
// stays tractable), plus ablation benchmarks for the design decisions called
// out in DESIGN.md: sigma-cache vs naive generation and the Successive
// Variance Reduction filter's incremental leave-one-out identities vs naive
// recomputation; the cost of the AR and GARCH fits and of each metric's
// inference; and an offline build's inference stage, sequential vs pooled.
package repro_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arma"
	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/density"
	"repro/internal/experiments"
	"repro/internal/garch"
	"repro/internal/stat"
	"repro/internal/view"
)

// --- One benchmark per table / figure -------------------------------------

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14a(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14b(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: view generation, naive vs sigma-cache (Fig. 14a's core) ----

func fig14TuplesForBench(b *testing.B, n int) []view.Tuple {
	b.Helper()
	campus := dataset.Campus(dataset.CampusConfig{N: n + 100})
	metric, err := density.NewVariableThresholding(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := view.TuplesFromSeries(campus, metric, 90, 91, int64(90+n), 1, runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	return tuples[:n]
}

func BenchmarkViewGenerationNaive(b *testing.B) {
	tuples := fig14TuplesForBench(b, 2000)
	builder, err := view.NewBuilder(view.Omega{Delta: 0.05, N: 300})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Generate(tuples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewGenerationSigmaCache(b *testing.B) {
	tuples := fig14TuplesForBench(b, 2000)
	builder, err := view.NewBuilder(view.Omega{Delta: 0.05, N: 300})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := builder.AttachCache(tuples, 0.01, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := builder.Generate(tuples); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Offline build: density inference on the worker pool -----------------

// BenchmarkTuplesFromSeries times the inference stage of a CREATE VIEW
// build, ARMA-GARCH over 256 campus windows (H=90), sequentially and on
// every core. Inference is nearly all of a build's time; the tuples are
// identical at every worker count (see view.TestInferParity).
func BenchmarkTuplesFromSeries(b *testing.B) {
	const n, h = 256, 90
	campus := dataset.Campus(dataset.CampusConfig{N: n + h + 1})
	metric, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tuples, err := view.TuplesFromSeries(campus, metric, h, h+1, h+n, 1, workers)
				if err != nil || len(tuples) != n {
					b.Fatalf("got %d tuples, err %v", len(tuples), err)
				}
			}
		})
	}
}

// --- Ablation: SVR filter, incremental identities vs naive recompute ------

func dirtyWindow(n int, spikes int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = 20 + 0.3*rng.NormFloat64()
	}
	for s := 0; s < spikes; s++ {
		vs[rng.Intn(n)] = 500
	}
	return vs
}

func BenchmarkSVRFilterIncremental(b *testing.B) {
	vs := dirtyWindow(256, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clean.SVRFilter(vs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// naiveSVRFilter is the cubic-time reference implementation: it recomputes
// every leave-one-out variance from scratch (what Algorithm 2's Steps 8-9
// avoid).
func naiveSVRFilter(vs []float64, svMax float64) []float64 {
	out := make([]float64, len(vs))
	copy(out, vs)
	replaced := map[int]bool{}
	for iter := 0; iter < len(out)-2; iter++ {
		if stat.Variance(out) <= svMax {
			break
		}
		bestVar := math.Inf(1)
		bestIdx := -1
		scratch := make([]float64, 0, len(out)-1)
		for k := range out {
			if replaced[k] {
				continue
			}
			scratch = scratch[:0]
			scratch = append(scratch, out[:k]...)
			scratch = append(scratch, out[k+1:]...)
			if v := stat.Variance(scratch); v < bestVar {
				bestVar = v
				bestIdx = k
			}
		}
		if bestIdx < 0 {
			break
		}
		switch {
		case bestIdx > 0 && bestIdx < len(out)-1:
			out[bestIdx] = (out[bestIdx-1] + out[bestIdx+1]) / 2
		case bestIdx == 0:
			out[0] = out[1]
		default:
			out[len(out)-1] = out[len(out)-2]
		}
		replaced[bestIdx] = true
	}
	return out
}

func BenchmarkSVRFilterNaiveRecompute(b *testing.B) {
	vs := dirtyWindow(256, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveSVRFilter(vs, 0.5)
	}
}

// --- AR estimation by conditional least squares ---------------------------

func BenchmarkARFitCLS(b *testing.B) {
	campus := dataset.Campus(dataset.CampusConfig{N: 300})
	window := campus.Values()[:180]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arma.Fit(window, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- GARCH QMLE from the variance-targeted start --------------------------

func garchInnovations(b *testing.B) []float64 {
	b.Helper()
	campus := dataset.Campus(dataset.CampusConfig{N: 300})
	window := campus.Values()[:180]
	model, err := arma.Fit(window, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return model.ResidualsOf(window)[1:]
}

func BenchmarkGARCHFitVarianceTargeting(b *testing.B) {
	a := garchInnovations(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := garch.Fit(a, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-metric inference cost (the Fig. 11 microscopic view) -------------

func benchMetricInfer(b *testing.B, m density.Metric) {
	b.Helper()
	campus := dataset.Campus(dataset.CampusConfig{N: 300})
	window := campus.Values()[:90]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Infer(window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferUT(b *testing.B) {
	m, err := density.NewUniformThresholding(1, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchMetricInfer(b, m)
}

func BenchmarkInferVT(b *testing.B) {
	m, err := density.NewVariableThresholding(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchMetricInfer(b, m)
}

func BenchmarkInferARMAGARCH(b *testing.B) {
	m, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchMetricInfer(b, m)
}

func BenchmarkInferKalmanGARCH(b *testing.B) {
	benchMetricInfer(b, density.NewKalmanGARCH())
}

func BenchmarkInferCGARCH(b *testing.B) {
	campus := dataset.Campus(dataset.CampusConfig{N: 300})
	svMax, err := clean.LearnSVMax(campus.Values()[:90], 8)
	if err != nil {
		b.Fatal(err)
	}
	inner, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchMetricInfer(b, &clean.Metric{Inner: inner, SVMax: svMax})
}
