package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNelderMeadQuadratic(t *testing.T) {
	// f(x) = (x0-1)^2 + (x1+2)^2 has minimum at (1, -2).
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + (x[1]+2)*(x[1]+2)
	}
	res, err := NelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]+2) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
	if res.F > 1e-8 {
		t.Errorf("minimum value = %v", res.F)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := NelderMead(f, []float64{-1.2, 1}, &NelderMeadSettings{MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimiser = %v (f=%v, iters=%d)", res.X, res.F, res.Iters)
	}
}

func TestNelderMeadOneDimensional(t *testing.T) {
	f := func(x []float64) float64 { return math.Cosh(x[0] - 3) }
	res, err := NelderMead(f, []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
}

func TestNelderMeadHandlesNaNRegions(t *testing.T) {
	// Objective is NaN for x < 0; the simplex must avoid that region.
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res, err := NelderMead(f, []float64{0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
}

func TestNelderMeadZeroStartingCoordinate(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + (x[1]-1)*(x[1]-1) }
	res, err := NelderMead(f, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Errorf("minimiser = %v", res.X)
	}
}

func TestNelderMeadBadArgs(t *testing.T) {
	f := func(x []float64) float64 { return 0 }
	if _, err := NelderMead(f, nil, nil); err != ErrBadArg {
		t.Error("empty x0 not rejected")
	}
	if _, err := NelderMead(f, []float64{math.NaN()}, nil); err != ErrBadArg {
		t.Error("NaN x0 not rejected")
	}
	if _, err := NelderMead(f, []float64{math.Inf(1)}, nil); err != ErrBadArg {
		t.Error("Inf x0 not rejected")
	}
}

func TestNelderMeadMaxIterReturnsBest(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	res, err := NelderMead(f, []float64{100}, &NelderMeadSettings{MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("3 iterations should not converge from x=100")
	}
	if res.F > 100*100 {
		t.Error("result worse than starting point")
	}
}

// Property: Nelder-Mead on a random shifted quadratic recovers the shift.
func TestQuickNelderMeadShiftedQuadratic(t *testing.T) {
	f := func(s1, s2 float64) bool {
		a := math.Mod(s1, 10)
		b := math.Mod(s2, 10)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		obj := func(x []float64) float64 {
			return (x[0]-a)*(x[0]-a) + 2*(x[1]-b)*(x[1]-b)
		}
		res, err := NelderMead(obj, []float64{0, 0}, &NelderMeadSettings{MaxIter: 2000})
		if err != nil {
			return false
		}
		return math.Abs(res.X[0]-a) < 1e-3 && math.Abs(res.X[1]-b) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestNelderMeadTieOrder pins the vertex order among ties. The objective is
// +Inf on a half-space, as garch's persistence barrier is, and the starting
// simplex puts three of its four vertices there, so the sort sees a
// three-way tie at +Inf on the first iteration and more ties as the search
// runs along the barrier. Which tied vertex counts as the worst steers every
// later step, so the bits of X and F below (recorded with the stable
// insertion order: ties keep their vertex index order) change if the
// ordering of ties does.
func TestNelderMeadTieOrder(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0]+x[1]+x[2] > 1.52 {
			return math.Inf(1)
		}
		return (x[0]-1)*(x[0]-1) + 2*(x[1]-1)*(x[1]-1) + 3*(x[2]-1)*(x[2]-1)
	}
	res, err := NelderMead(f, []float64{0.5, 0.5, 0.5}, &NelderMeadSettings{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	wantX := []uint64{0x3fc8be67d5fb1ff8, 0x3fe30b9ccd51cf66, 0x3fe7689969f55927}
	for i, w := range wantX {
		if got := math.Float64bits(res.X[i]); got != w {
			t.Errorf("X[%d] = %v (bits %#x), want bits %#x", i, res.X[i], got, w)
		}
	}
	if got, w := math.Float64bits(res.F), uint64(0x3ff31dca8ac846bc); got != w {
		t.Errorf("F = %v (bits %#x), want bits %#x", res.F, got, w)
	}
}

// TestNelderMeadAllocsFlat checks that NelderMead allocates once per call,
// not per iteration: a 10-iteration and a 400-iteration search allocate the
// same number of times.
func TestNelderMeadAllocsFlat(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 2*(x[1]+2)*(x[1]+2) + 3*x[2]*x[2]
	}
	x0 := []float64{100, 100, 100}
	allocs := func(maxIter int) float64 {
		cfg := &NelderMeadSettings{MaxIter: maxIter, TolF: 1e-300, TolX: 1e-300}
		res, err := NelderMead(f, x0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != maxIter {
			t.Fatalf("MaxIter %d: stopped after %d iterations", maxIter, res.Iters)
		}
		return testing.AllocsPerRun(20, func() { _, _ = NelderMead(f, x0, cfg) })
	}
	if short, long := allocs(10), allocs(400); short != long {
		t.Errorf("allocations grow with iterations: %v at MaxIter 10, %v at 400", short, long)
	}
}
