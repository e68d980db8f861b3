// Package mat implements the small dense-matrix kernel behind the ordinary
// least squares in package stat, which the ARMA and GARCH fits use. It
// favours clarity and numerical robustness over raw speed: the regression
// designs involved have a handful of columns, so a straightforward
// Householder QR is both sufficient and easy to verify.
package mat

import (
	"errors"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// Errors returned by the accessors, the QR factorisation and its solver.
var (
	ErrShape       = errors.New("mat: dimension mismatch")
	ErrSingular    = errors.New("mat: matrix is singular to working precision")
	ErrOutOfBounds = errors.New("mat: index out of bounds")
)

// NewDense creates an r x c matrix. If data is nil a zero matrix is
// allocated; otherwise data must have length r*c and is used directly
// (not copied).
func NewDense(r, c int, data []float64) *Dense {
	if r <= 0 || c <= 0 {
		panic("mat: non-positive dimension")
	}
	if data == nil {
		data = make([]float64, r*c)
	}
	if len(data) != r*c {
		panic("mat: data length does not match dimensions")
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(ErrOutOfBounds)
	}
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(ErrOutOfBounds)
	}
	m.data[i*m.cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// MulVec returns the matrix-vector product a * x.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, ErrShape
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		s := 0.0
		for j := 0; j < a.cols; j++ {
			s += a.data[i*a.cols+j] * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// qr holds a Householder QR factorisation of an m x n matrix with m >= n.
type qr struct {
	a     *Dense    // packed R in the upper triangle, reflectors below
	rdiag []float64 // diagonal of R
}

// factorQR computes the Householder QR factorisation. It returns ErrSingular
// if any diagonal of R is (numerically) zero.
func factorQR(a *Dense) (*qr, error) {
	m, n := a.Dims()
	if m < n {
		return nil, ErrShape
	}
	w := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Householder norm of column k below the diagonal.
		nrm := 0.0
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, w.At(i, k))
		}
		if nrm == 0 {
			return nil, ErrSingular
		}
		if w.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			w.Set(i, k, w.At(i, k)/nrm)
		}
		w.Set(k, k, w.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += w.At(i, k) * w.At(i, j)
			}
			s = -s / w.At(k, k)
			for i := k; i < m; i++ {
				w.Set(i, j, w.At(i, j)+s*w.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &qr{a: w, rdiag: rdiag}, nil
}

// solve computes the least-squares solution of A x = b using the stored
// factorisation.
func (f *qr) solve(b []float64) ([]float64, error) {
	m, n := f.a.Dims()
	if len(b) != m {
		return nil, ErrShape
	}
	x := make([]float64, m)
	copy(x, b)
	// Apply Q^T.
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < m; i++ {
			s += f.a.At(i, k) * x[i]
		}
		s = -s / f.a.At(k, k)
		for i := k; i < m; i++ {
			x[i] += s * f.a.At(i, k)
		}
	}
	// Back substitution with R. Diagonals that are tiny relative to the
	// largest diagonal indicate (numerical) rank deficiency.
	maxR := 0.0
	for _, r := range f.rdiag {
		if a := math.Abs(r); a > maxR {
			maxR = a
		}
	}
	for k := n - 1; k >= 0; k-- {
		if math.Abs(f.rdiag[k]) <= 1e-13*maxR {
			return nil, ErrSingular
		}
		x[k] /= f.rdiag[k]
		for i := 0; i < k; i++ {
			x[i] -= x[k] * f.a.At(i, k)
		}
	}
	return x[:n], nil
}

// SolveLeastSquares returns argmin_x ||A x - b||_2 for an m x n design A with
// m >= n and full column rank, via Householder QR.
func SolveLeastSquares(a *Dense, b []float64) ([]float64, error) {
	f, err := factorQR(a)
	if err != nil {
		return nil, err
	}
	return f.solve(b)
}
