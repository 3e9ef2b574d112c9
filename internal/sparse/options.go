// Package sparse implements the sparse-recovery machinery that ROArray uses
// in place of a generic SOCP solver: complex-valued LASSO solved by ADMM
// (with the m << n Woodbury factorization trick), the FISTA proximal
// gradient method, orthogonal matching pursuit, and the group-sparse
// (l2,1-norm) variants required by l1-SVD multi-snapshot fusion. Solvers
// hold a dictionary only as a Kronecker factor pair G⊗S (a plain dictionary
// is [1]⊗a), so the joint space-delay dictionary is never formed densely.
//
// All solvers minimize the paper's Eq. 11/18 objective
//
//	min_x  1/2 ||A x - y||_2^2 + kappa ||x||_1
//
// over complex x, where the complex modulus in the l1 term makes the problem
// a second-order cone program; complex soft-thresholding is its exact
// proximal operator, so ADMM/FISTA converge to the same global optimum the
// paper obtains with cvx.
package sparse

import (
	"errors"
	"fmt"

	"roarray/internal/obs"
)

// Method selects the optimization algorithm.
type Method int

// Supported solver methods.
const (
	MethodADMM Method = iota + 1
	MethodFISTA
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodADMM:
		return "admm"
	case MethodFISTA:
		return "fista"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ErrDimensionMismatch is returned when the measurement vector does not match
// the dictionary's row count.
var ErrDimensionMismatch = errors.New("sparse: measurement length does not match dictionary rows")

// IterationHook observes solver progress. iter is 1-based; mags holds the
// current per-atom coefficient magnitudes aggregated across snapshots (for a
// single measurement vector this is simply |x_i|).
type IterationHook func(iter int, mags []float64)

type options struct {
	method   Method
	maxIters int
	absTol   float64
	relTol   float64
	rho      float64
	hook     IterationHook
	metrics  *obs.Registry
}

func defaultOptions() options {
	return options{
		method:   MethodADMM,
		maxIters: 400,
		absTol:   1e-6,
		relTol:   1e-5,
		rho:      0, // 0 selects the scale-adaptive default in NewSolver
	}
}

// Option customizes a solver.
type Option func(*options)

// WithMethod selects the solver algorithm (default ADMM).
func WithMethod(m Method) Option { return func(o *options) { o.method = m } }

// WithMaxIters caps the iteration count (default 400).
func WithMaxIters(n int) Option { return func(o *options) { o.maxIters = n } }

// WithTolerance sets the absolute and relative convergence tolerances.
func WithTolerance(abs, rel float64) Option {
	return func(o *options) { o.absTol, o.relTol = abs, rel }
}

// WithRho sets the ADMM penalty parameter explicitly. By default rho is
// chosen as the mean squared column norm of the dictionary, which keeps the
// splitting well scaled whether or not the dictionary columns are
// normalized (steering dictionaries have column norm sqrt(M*L)).
func WithRho(rho float64) Option { return func(o *options) { o.rho = rho } }

// WithIterationHook registers a progress observer, used e.g. to snapshot the
// AoA spectrum as it sharpens across iterations (paper Fig. 3).
func WithIterationHook(h IterationHook) Option { return func(o *options) { o.hook = h } }

// WithMetrics records solver telemetry into reg: a "sparse.solve.total"
// counter, a "sparse.solve.iterations" histogram, and a
// "sparse.solve.nonconverged_total" counter incremented whenever a solve
// exhausts its iteration cap before meeting the stopping criterion. Metric
// handles are resolved once at NewSolver, so the per-solve cost is three
// atomic updates; a nil registry disables recording entirely.
func WithMetrics(reg *obs.Registry) Option { return func(o *options) { o.metrics = reg } }

// Result reports the outcome of a sparse solve.
type Result struct {
	// Solver names the algorithm that produced this result ("admm",
	// "fista", or "omp" from core's fallback chain), so telemetry consumers don't have to thread the
	// configured Method alongside every result.
	Solver string
	// X holds the recovered coefficients, one column per snapshot
	// (a single column for ordinary LASSO).
	X [][]complex128
	// RowMags holds per-atom magnitudes aggregated across snapshots
	// (the l2 norm of each coefficient row); this is the sparse spectrum.
	RowMags []float64
	// Iterations actually performed.
	Iterations int
	// Converged reports whether the stopping criterion was met before
	// hitting the iteration cap.
	Converged bool
	// Objective is the final value of 1/2||AX-Y||_F^2 + kappa*sum row norms.
	Objective float64
}
