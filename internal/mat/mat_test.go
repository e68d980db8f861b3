package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseAndAccessors(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Error("At returned wrong elements")
	}
	m.Set(1, 1, 42)
	if m.At(1, 1) != 42 {
		t.Error("Set did not stick")
	}
}

func TestNewDensePanics(t *testing.T) {
	assertPanics(t, func() { NewDense(0, 1, nil) }, "zero rows")
	assertPanics(t, func() { NewDense(2, 2, []float64{1}) }, "bad data length")
	m := NewDense(2, 2, nil)
	assertPanics(t, func() { m.At(2, 0) }, "row out of bounds")
	assertPanics(t, func() { m.Set(0, 2, 1) }, "col out of bounds")
}

func assertPanics(t *testing.T, f func(), msg string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", msg)
		}
	}()
	f()
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got, err := MulVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v", got)
	}
	if _, err := MulVec(a, []float64{1}); err != ErrShape {
		t.Error("MulVec shape mismatch not detected")
	}
}

func TestSolveSquare(t *testing.T) {
	a := NewDense(3, 3, []float64{
		4, 1, 0,
		1, 3, 1,
		0, 1, 2,
	})
	xTrue := []float64{1, -2, 3}
	b, err := MulVec(a, xTrue)
	if err != nil {
		t.Fatal(err)
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

// A rank-deficient design must fail with ErrSingular on both paths: an
// all-zero column stops factorQR (its Householder norm is exactly 0), and two
// columns collinear to working precision pass the factorisation but leave a
// diagonal of R below 1e-13 of the largest, which the back substitution
// rejects. The second column is perturbed by ~1e-14 relative so that its
// reflected remainder is certainly nonzero on every platform and the case
// cannot slip into the first branch. arma's
// conditional least squares relies on this error to fall back to a constant
// model on a flat window.
func TestSolveSingular(t *testing.T) {
	zeroCol := NewDense(3, 2, []float64{
		1, 0,
		2, 0,
		3, 0,
	})
	if _, err := factorQR(zeroCol); !errors.Is(err, ErrSingular) {
		t.Errorf("zero column: factorQR err = %v, want ErrSingular", err)
	}
	if _, err := SolveLeastSquares(zeroCol, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("zero column: err = %v, want ErrSingular", err)
	}
	collinear := NewDense(3, 2, []float64{
		1, 2,
		2, 4,
		3, 6 + 6e-14,
	})
	if _, err := factorQR(collinear); err != nil {
		t.Fatalf("collinear columns must factor (the check is in solve): %v", err)
	}
	if _, err := SolveLeastSquares(collinear, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("collinear columns: err = %v, want ErrSingular", err)
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2 + 3x exactly: residual must be zero at LS solution.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewDense(len(xs), 2, nil)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	coef, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-10 || math.Abs(coef[1]-3) > 1e-10 {
		t.Errorf("coef = %v", coef)
	}
}

func TestSolveLeastSquaresResidualOrthogonality(t *testing.T) {
	// With noise, the residual must be orthogonal to the column space.
	a := NewDense(5, 2, []float64{
		1, 0.1,
		1, 1.3,
		1, 2.2,
		1, 2.9,
		1, 4.5,
	})
	b := []float64{1.1, 3.8, 7.1, 9.0, 13.2}
	coef, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	fitted, _ := MulVec(a, coef)
	res := make([]float64, len(b))
	for i := range b {
		res[i] = b[i] - fitted[i]
	}
	// A^T r should be ~0.
	_, cols := a.Dims()
	atr := make([]float64, cols)
	for j := range atr {
		for i := range res {
			atr[j] += a.At(i, j) * res[i]
		}
	}
	for i, v := range atr {
		if math.Abs(v) > 1e-9 {
			t.Errorf("A^T r[%d] = %v, want ~0", i, v)
		}
	}
}

func TestSolveLeastSquaresUnderdetermined(t *testing.T) {
	a := NewDense(1, 2, []float64{1, 1})
	if _, err := SolveLeastSquares(a, []float64{1}); err != ErrShape {
		t.Error("expected shape error for m < n")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

// Property: solving A x = b for a nonsingular square A reproduces b.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(v1, v2, v3, b1, b2, b3 float64) bool {
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 10) + 0.5 }
		// Build a diagonally dominant (hence nonsingular) matrix.
		a := NewDense(3, 3, []float64{
			norm(v1) + 10, 1, 2,
			1, norm(v2) + 10, 3,
			2, 3, norm(v3) + 10,
		})
		clip := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e6)
		}
		b := []float64{clip(b1), clip(b2), clip(b3)}
		x, err := SolveLeastSquares(a, b)
		if err != nil {
			return false
		}
		back, err := MulVec(a, x)
		if err != nil {
			return false
		}
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
