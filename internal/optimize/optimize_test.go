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
