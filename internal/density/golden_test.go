package density_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arma"
	"repro/internal/clean"
	"repro/internal/dataset"
	"repro/internal/density"
	"repro/internal/garch"
	"repro/internal/timeseries"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_trace.txt")

const (
	goldenFile    = "testdata/golden_trace.txt"
	goldenH       = 90  // window length
	goldenFirst   = 100 // index of the first forecast value
	goldenWindows = 200 // consecutive windows per dataset and metric
)

// goldenTrace renders every line of the golden file. Per dataset it records
// (t, bits(r̂), bits(σ̂)) for each metric on goldenWindows consecutive
// windows, then garch.Fit's (alpha0, alpha1, beta1, logL) bits on the
// ARMA(1,0) residuals of the same windows, as ARMA-GARCH computes them.
// C-GARCH runs on a copy of the slice with erroneous values injected, so
// that its SVR filter actually cleans.
func goldenTrace(t *testing.T) []string {
	t.Helper()
	n := goldenFirst + goldenWindows
	slices := []struct {
		name string
		s    *timeseries.Series
	}{
		{"campus", dataset.Campus(dataset.CampusConfig{N: n})},
		{"car", dataset.Car(dataset.CarConfig{N: n})},
	}
	var lines []string
	for _, ds := range slices {
		values := ds.s.Values()
		times := ds.s.Times()
		dirty, _, err := dataset.InjectErrors(ds.s, 3, 4, goldenFirst, 7)
		if err != nil {
			t.Fatal(err)
		}
		svMax, err := clean.LearnSVMax(values[:goldenH], 8)
		if err != nil {
			t.Fatal(err)
		}
		ut, err := density.NewUniformThresholding(1, 0, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		vt, err := density.NewVariableThresholding(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ag10, err := density.NewARMAGARCH(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		ag21, err := density.NewARMAGARCH(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		metrics := []struct {
			name   string
			m      density.Metric
			values []float64
		}{
			{"UT", ut, values},
			{"VT", vt, values},
			{"ARMA(1,0)-GARCH", ag10, values},
			{"ARMA(2,1)-GARCH", ag21, values},
			{"Kalman-GARCH", density.NewKalmanGARCH(), values},
			{"C-GARCH", &clean.Metric{Inner: ag10, SVMax: svMax}, dirty.Values()},
		}
		for _, mc := range metrics {
			for i := goldenFirst; i < goldenFirst+goldenWindows; i++ {
				inf, err := mc.m.Infer(mc.values[i-goldenH : i])
				if err != nil {
					t.Fatalf("%s %s t=%d: %v", ds.name, mc.name, times[i], err)
				}
				lines = append(lines, fmt.Sprintf("%s %s %d %016x %016x",
					ds.name, mc.name, times[i], math.Float64bits(inf.RHat), math.Float64bits(inf.Sigma)))
			}
		}
		for i := goldenFirst; i < goldenFirst+goldenWindows; i++ {
			window := values[i-goldenH : i]
			_, am, err := arma.FitForecast(window, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			g, err := garch.Fit(am.ResidualsOf(window)[1:], 1, 1, nil)
			if err != nil {
				t.Fatalf("%s garch.Fit t=%d: %v", ds.name, times[i], err)
			}
			lines = append(lines, fmt.Sprintf("%s garch.Fit %d %016x %016x %016x %016x",
				ds.name, times[i], math.Float64bits(g.Alpha0), math.Float64bits(g.Alpha[0]),
				math.Float64bits(g.Beta[0]), math.Float64bits(g.LogL)))
		}
	}
	return lines
}

// TestGoldenTrace pins the density series bit for bit: any change to the
// arithmetic of ARMA, Kalman, GARCH, the optimiser or the SVR filter shows
// up here as a changed line. A change that moves numbers on purpose
// regenerates the file with -update and says why.
//
// The trace is recorded on amd64 and only compared there: the arm64
// compiler fuses multiply-adds, so the same source yields different
// (equally valid) last bits on that architecture.
func TestGoldenTrace(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden trace is recorded on amd64; %s fuses multiply-adds", runtime.GOARCH)
	}
	got := goldenTrace(t)
	path := filepath.FromSlash(goldenFile)
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# dataset metric t bits(r̂) bits(σ̂) | dataset garch.Fit t bits(alpha0 alpha1 beta1 logL); regenerate with go test -run TestGoldenTrace -update\n")
		for _, l := range got {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("trace has %d lines, golden file %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 5 {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, decodeLine(got[i]), decodeLine(want[i]))
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d lines differ", bad, len(got))
	}
}

// decodeLine appends the float values to a trace line's hex fields, so a
// failure shows how far apart the numbers are, not only that bits differ.
func decodeLine(l string) string {
	fields := strings.Fields(l)
	out := l
	for _, h := range fields[3:] {
		var b uint64
		if _, err := fmt.Sscanf(h, "%x", &b); err == nil {
			out += fmt.Sprintf(" %.17g", math.Float64frombits(b))
		}
	}
	return out
}
