// Package optimize provides the derivative-free optimiser used by the
// maximum-likelihood estimators in this repository. The GARCH quasi-MLE
// (internal/garch) minimises its negative log-likelihood with Nelder-Mead
// over an unconstrained reparameterisation.
package optimize

import (
	"errors"
	"math"
)

// ErrBadArg reports a starting point that is empty or not finite.
var ErrBadArg = errors.New("optimize: invalid argument")

// Objective is a function to minimise.
type Objective func(x []float64) float64

// NelderMeadSettings configures the simplex search.
type NelderMeadSettings struct {
	// MaxIter bounds the number of simplex iterations (default 1000).
	MaxIter int
	// TolF stops when the simplex function-value spread falls below it
	// (default 1e-10).
	TolF float64
	// TolX stops when the simplex diameter falls below it (default 1e-10).
	TolX float64
	// Step is the initial simplex displacement per coordinate (default 0.1,
	// or 0.00025 for coordinates equal to zero, following Matlab's fminsearch
	// convention).
	Step float64
}

func (s *NelderMeadSettings) withDefaults() NelderMeadSettings {
	out := NelderMeadSettings{MaxIter: 1000, TolF: 1e-10, TolX: 1e-10, Step: 0.1}
	if s == nil {
		return out
	}
	if s.MaxIter > 0 {
		out.MaxIter = s.MaxIter
	}
	if s.TolF > 0 {
		out.TolF = s.TolF
	}
	if s.TolX > 0 {
		out.TolX = s.TolX
	}
	if s.Step > 0 {
		out.Step = s.Step
	}
	return out
}

// Result is the outcome of an optimisation.
type Result struct {
	X         []float64 // minimiser
	F         float64   // objective value at X
	Iters     int       // iterations performed
	Converged bool      // whether a tolerance (rather than MaxIter) stopped the search
}

// NelderMead minimises f starting from x0 using the downhill-simplex method
// with the standard reflection/expansion/contraction/shrink coefficients
// (1, 2, 0.5, 0.5). It never returns an error for a finite starting point;
// if MaxIter is exhausted the best vertex found so far is returned with
// Converged=false.
func NelderMead(f Objective, x0 []float64, settings *NelderMeadSettings) (*Result, error) {
	if len(x0) == 0 {
		return nil, ErrBadArg
	}
	for _, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrBadArg
		}
	}
	cfg := settings.withDefaults()
	n := len(x0)

	// Every point lives in one buffer allocated once per call: the n+1
	// simplex vertices, then the centroid, trial (reflected), expansion and
	// contraction points.
	buf := make([]float64, (n+5)*n)
	point := func(i int) []float64 { return buf[i*n : (i+1)*n : (i+1)*n] }
	verts := make([][]float64, n+1)
	fvals := make([]float64, n+1)
	for i := range verts {
		v := point(i)
		copy(v, x0)
		if i > 0 {
			j := i - 1
			if v[j] != 0 {
				v[j] += cfg.Step * math.Abs(v[j])
			} else {
				v[j] = cfg.Step * 0.0025
			}
		}
		verts[i] = v
		fvals[i] = safeEval(f, v)
	}
	centroid, trial, exp, con := point(n+1), point(n+2), point(n+3), point(n+4)

	// sortSimplex orders the vertices by objective value with an insertion
	// sort. It is stable: tied vertices (several at the +Inf barrier of a
	// constrained objective, say) keep their index order, which is the
	// order TestNelderMeadTieOrder and garch's fitted bits depend on.
	order := make([]int, n+1)
	sortSimplex := func() {
		for i := range order {
			order[i] = i
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && fvals[order[j]] < fvals[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}

	var iters int
	converged := false
	for iters = 0; iters < cfg.MaxIter; iters++ {
		sortSimplex()
		best, worst := order[0], order[n]

		// Convergence checks on the ordered simplex.
		if math.Abs(fvals[worst]-fvals[best]) <= cfg.TolF {
			diam := 0.0
			for _, idx := range order[1:] {
				for j := 0; j < n; j++ {
					d := math.Abs(verts[idx][j] - verts[best][j])
					if d > diam {
						diam = d
					}
				}
			}
			if diam <= cfg.TolX {
				converged = true
				break
			}
		}

		// Centroid of all but the worst vertex.
		for j := 0; j < n; j++ {
			centroid[j] = 0
		}
		for _, idx := range order[:n] {
			for j := 0; j < n; j++ {
				centroid[j] += verts[idx][j]
			}
		}
		for j := 0; j < n; j++ {
			centroid[j] /= float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + (centroid[j] - verts[worst][j])
		}
		fr := safeEval(f, trial)

		switch {
		case fr < fvals[order[0]]:
			// Expansion.
			for j := 0; j < n; j++ {
				exp[j] = centroid[j] + 2*(centroid[j]-verts[worst][j])
			}
			fe := safeEval(f, exp)
			if fe < fr {
				copy(verts[worst], exp)
				fvals[worst] = fe
			} else {
				copy(verts[worst], trial)
				fvals[worst] = fr
			}
		case fr < fvals[order[n-1]]:
			// Accept reflection.
			copy(verts[worst], trial)
			fvals[worst] = fr
		default:
			// Contraction (outside if the reflected point improved on the
			// worst vertex, inside otherwise).
			if fr < fvals[worst] {
				for j := 0; j < n; j++ {
					con[j] = centroid[j] + 0.5*(trial[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					con[j] = centroid[j] + 0.5*(verts[worst][j]-centroid[j])
				}
			}
			fc := safeEval(f, con)
			if fc < math.Min(fr, fvals[worst]) {
				copy(verts[worst], con)
				fvals[worst] = fc
			} else {
				// Shrink toward the best vertex.
				for _, idx := range order[1:] {
					for j := 0; j < n; j++ {
						verts[idx][j] = verts[best][j] + 0.5*(verts[idx][j]-verts[best][j])
					}
					fvals[idx] = safeEval(f, verts[idx])
				}
			}
		}
	}

	sortSimplex()
	best := order[0]
	out := make([]float64, n)
	copy(out, verts[best])
	return &Result{X: out, F: fvals[best], Iters: iters, Converged: converged}, nil
}

// safeEval evaluates f and maps NaN to +Inf so that invalid regions are
// simply avoided by the simplex rather than corrupting comparisons.
func safeEval(f Objective, x []float64) float64 {
	v := f(x)
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}
