package garch

import (
	"testing"

	"repro/internal/arma"
	"repro/internal/dataset"
)

// campusResiduals returns the ARMA(1,0) residuals of one H=90 campus window,
// the innovations ARMA-GARCH hands to Fit.
func campusResiduals(tb testing.TB) []float64 {
	tb.Helper()
	window := dataset.Campus(dataset.CampusConfig{N: 300}).Values()[200:290]
	_, am, err := arma.FitForecast(window, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return am.ResidualsOf(window)[1:]
}

// TestFitAllocs pins Fit's allocations per call: its working state (model,
// variance buffer, the optimiser's simplex) is allocated once per call, and
// the ~300 objective evaluations of a fit allocate nothing.
func TestFitAllocs(t *testing.T) {
	a := campusResiduals(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Fit(a, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 11 {
		t.Errorf("Fit allocates %v times per call, want <= 11", allocs)
	}
}

func BenchmarkFit(b *testing.B) {
	a := campusResiduals(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(a, 1, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}
