package dataset

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/garch"
	"repro/internal/stat"
)

func TestCampusDefaults(t *testing.T) {
	s := Campus(CampusConfig{})
	if s.Len() != CampusSize {
		t.Fatalf("len = %d, want %d", s.Len(), CampusSize)
	}
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	// Plausible ambient temperatures.
	if sum.Min < -30 || sum.Max > 50 {
		t.Errorf("temperature range [%v, %v] implausible", sum.Min, sum.Max)
	}
	// Diurnal amplitude: daily range should be several degrees.
	if sum.Max-sum.Min < 8 {
		t.Errorf("overall range %v too small for diurnal data", sum.Max-sum.Min)
	}
}

func TestCampusDeterministic(t *testing.T) {
	a := Campus(CampusConfig{N: 500, Seed: 7})
	b := Campus(CampusConfig{N: 500, Seed: 7})
	for i := 0; i < 500; i++ {
		pa, _ := a.At(i)
		pb, _ := b.At(i)
		if pa != pb {
			t.Fatalf("not deterministic at %d", i)
		}
	}
	c := Campus(CampusConfig{N: 500, Seed: 8})
	same := true
	for i := 0; i < 500; i++ {
		pa, _ := a.At(i)
		pc, _ := c.At(i)
		if pa.V != pc.V {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical series")
	}
}

func TestCampusHasVolatilityRegimes(t *testing.T) {
	// The generator's defining property (drives Figs. 4a and 15a): windowed
	// variance varies strongly across the day.
	s := Campus(CampusConfig{N: 4000, Seed: 1})
	vars, err := stat.RollingVariance(s.Values(), 90)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := stat.MinMax(vars)
	if err != nil {
		t.Fatal(err)
	}
	if hi < 4*lo {
		t.Errorf("volatility regimes too weak: min %v, max %v", lo, hi)
	}
}

func TestCampusExhibitsARCHEffects(t *testing.T) {
	// Fig. 15a: the ARCH test must reject the i.i.d. null on campus-data.
	s := Campus(CampusConfig{N: 4000, Seed: 1})
	vals := s.Values()
	// Detrend with first differences (proxy for ARMA residuals).
	diffs := make([]float64, len(vals)-1)
	for i := 1; i < len(vals); i++ {
		diffs[i-1] = vals[i] - vals[i-1]
	}
	res, err := garch.ARCHTest(diffs, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("campus-data shows no ARCH effects: stat=%v crit=%v", res.Statistic, res.Critical)
	}
}

func TestCarDefaults(t *testing.T) {
	s := Car(CarConfig{})
	if s.Len() != CarSize {
		t.Fatalf("len = %d, want %d", s.Len(), CarSize)
	}
	// x-coordinate should be monotone-ish (car travels forward): the final
	// position must be far from the start.
	first, _ := s.At(0)
	last, _ := s.At(s.Len() - 1)
	if last.V-first.V < 1000 {
		t.Errorf("car travelled only %v m", last.V-first.V)
	}
}

func TestCarDeterministic(t *testing.T) {
	a := Car(CarConfig{N: 300, Seed: 3})
	b := Car(CarConfig{N: 300, Seed: 3})
	for i := 0; i < 300; i++ {
		pa, _ := a.At(i)
		pb, _ := b.At(i)
		if pa != pb {
			t.Fatalf("not deterministic at %d", i)
		}
	}
}

func TestCarHasStops(t *testing.T) {
	// Stop-and-go means some long runs of nearly-constant position.
	s := Car(CarConfig{N: 5000, Seed: 2})
	d := s.Diff()
	small := 0
	for _, v := range d {
		if math.Abs(v) < 6 { // GPS noise only, no motion
			small++
		}
	}
	if small < len(d)/20 {
		t.Errorf("only %d/%d near-zero increments; no stop phases?", small, len(d))
	}
}

func TestInjectErrors(t *testing.T) {
	s := Campus(CampusConfig{N: 1000, Seed: 1})
	dirty, injs, err := InjectErrors(s, 25, 20, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(injs) != 25 {
		t.Fatalf("%d injections", len(injs))
	}
	sum, _ := s.Summarize()
	for _, inj := range injs {
		if inj.Index < 100 {
			t.Errorf("injection at %d below minIndex", inj.Index)
		}
		p, _ := dirty.At(inj.Index)
		if p.V != inj.New {
			t.Errorf("dirty series does not hold injected value at %d", inj.Index)
		}
		// Injected values are extreme relative to the clean data.
		if math.Abs(inj.New-sum.Mean) < 10*sum.StdDev {
			t.Errorf("injection at %d not extreme: %v", inj.Index, inj.New)
		}
	}
	// Original series untouched.
	for _, inj := range injs {
		p, _ := s.At(inj.Index)
		if p.V != inj.Old {
			t.Error("original series modified")
		}
	}
	// Injections sorted by index.
	for i := 1; i < len(injs); i++ {
		if injs[i].Index <= injs[i-1].Index {
			t.Error("injections not sorted or not distinct")
		}
	}
}

// TestInjectErrorsDeterministic pins that one seed means one dirty series:
// the outlier signs are drawn in index order, not map-iteration order.
func TestInjectErrorsDeterministic(t *testing.T) {
	s := Campus(CampusConfig{N: 1000, Seed: 1})
	wantDirty, wantInjs, err := InjectErrors(s, 40, 20, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		dirty, injs, err := InjectErrors(s, 40, 20, 100, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(injs, wantInjs) {
			t.Fatalf("trial %d: injections differ for one seed", trial)
		}
		if !reflect.DeepEqual(dirty.Values(), wantDirty.Values()) {
			t.Fatalf("trial %d: series differ for one seed", trial)
		}
	}
}

func TestInjectErrorsValidation(t *testing.T) {
	s := Campus(CampusConfig{N: 100, Seed: 1})
	if _, _, err := InjectErrors(s, -1, 10, 0, 1); !errors.Is(err, ErrBadArg) {
		t.Error("negative count accepted")
	}
	if _, _, err := InjectErrors(s, 5, 0, 0, 1); !errors.Is(err, ErrBadArg) {
		t.Error("zero magnitude accepted")
	}
	if _, _, err := InjectErrors(s, 101, 10, 0, 1); !errors.Is(err, ErrBadArg) {
		t.Error("count > n accepted")
	}
	if _, injs, err := InjectErrors(s, 0, 10, 0, 1); err != nil || len(injs) != 0 {
		t.Error("count=0 should be a no-op")
	}
}

func TestInfoRows(t *testing.T) {
	campus := Campus(CampusConfig{N: 2000, Seed: 1})
	car := Car(CarConfig{N: 2000, Seed: 2})
	ci, err := CampusInfo(campus)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Name != "campus-data" || ci.Parameter != "Temperature" || ci.N != 2000 {
		t.Errorf("campus info: %+v", ci)
	}
	gi, err := CarInfo(car)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Name != "car-data" || gi.Parameter != "GPS Position" || gi.N != 2000 {
		t.Errorf("car info: %+v", gi)
	}
}
