package sparse

import (
	"fmt"
	"math"

	"roarray/internal/cmat"
	"roarray/internal/obs"
)

// Solver solves (group-)LASSO problems against a fixed dictionary A = G⊗S,
// held only as its Kronecker factor pair. The expensive per-dictionary work
// (the Woodbury factorization for ADMM, the Lipschitz constant for FISTA) is
// done once at construction and reused across measurement vectors, which is
// how ROArray amortizes cost across packets that share a steering
// dictionary.
type Solver struct {
	kron *kronOps
	opts options
	tele *solverTelemetry // nil when no metrics registry is configured

	chol *cmat.Cholesky // ADMM: factor of (rho I + A Aᴴ), size m x m
	lip  float64        // FISTA: ||A||_2^2
}

// solverTelemetry caches the metric handles a solver records into, resolved
// once at construction so the per-solve cost is a few atomic updates.
type solverTelemetry struct {
	solves       *obs.Counter
	nonconverged *obs.Counter
	iterations   *obs.Histogram
}

func newSolverTelemetry(reg *obs.Registry) *solverTelemetry {
	if reg == nil {
		return nil
	}
	return &solverTelemetry{
		solves:       reg.Counter("sparse.solve.total"),
		nonconverged: reg.Counter("sparse.solve.nonconverged_total"),
		iterations:   reg.Histogram("sparse.solve.iterations", 5, 10, 25, 50, 100, 200, 400, 800),
	}
}

// record notes one completed solve. Nil-safe: the disabled path is a single
// pointer check.
func (t *solverTelemetry) record(res *Result) {
	if t == nil {
		return
	}
	t.solves.Inc()
	t.iterations.Observe(float64(res.Iterations))
	if !res.Converged {
		t.nonconverged.Inc()
	}
}

// NewSolver prepares a solver for the plain m x n dictionary a, as the
// trivial Kronecker pair [1]⊗a: every product then runs in cmat's dense
// accumulation order (TestKernelsBitIdentical).
func NewSolver(a *cmat.Matrix, opts ...Option) (*Solver, error) {
	return NewKronSolver(unitFactor, a, opts...)
}

// unitFactor is the 1x1 row factor [1] of a plain dictionary.
var unitFactor = cmat.Identity(1)

// NewKronSolver prepares a solver for the dictionary A = G⊗S, whose entry
// ((l*M+m), (t*C+i)) is g[l][t] * s[m][i] for g of shape L x T and s of shape
// M x C. The joint space-delay steering dictionary has exactly this form —
// each atom is the outer product of a delay response over subcarriers and an
// array response over antennas — so every matvec runs on the small factors
// (~18x fewer multiplies at the paper's dimensions), the ADMM system
// rho I + AAᴴ is built as (GGᴴ)⊗(SSᴴ), and the FISTA Lipschitz constant
// ||A||_2^2 comes from a power iteration through the factored matvecs. The
// dense L*M x T*C matrix is never formed.
func NewKronSolver(g, s *cmat.Matrix, opts ...Option) (*Solver, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if o.maxIters <= 0 {
		return nil, fmt.Errorf("sparse: max iterations must be positive, got %d", o.maxIters)
	}
	if g == nil || s == nil {
		return nil, fmt.Errorf("sparse: dictionary needs both a row and a column factor")
	}
	sv := &Solver{kron: newKronOps(g, s), opts: o, tele: newSolverTelemetry(o.metrics)}
	switch o.method {
	case MethodADMM:
		if o.rho < 0 {
			return nil, fmt.Errorf("sparse: ADMM rho must be positive, got %v", o.rho)
		}
		gr, frob2 := gram(g, s)
		if o.rho == 0 {
			// Scale-adaptive default: the mean squared column norm, i.e.
			// trace(AᴴA)/n. This is 1 for unit-norm dictionaries and M*L for
			// steering dictionaries, keeping the ADMM splitting balanced.
			o.rho = frob2 / float64(sv.kron.cols())
			if o.rho == 0 {
				return nil, fmt.Errorf("sparse: dictionary has zero norm")
			}
			sv.opts.rho = o.rho
		}
		// rho I + A Aᴴ is Hermitian positive definite for rho > 0.
		for i := 0; i < gr.Rows(); i++ {
			gr.Set(i, i, gr.At(i, i)+complex(o.rho, 0))
		}
		chol, err := cmat.CholeskyDecompose(gr)
		if err != nil {
			return nil, fmt.Errorf("sparse: factor ADMM system: %w", err)
		}
		sv.chol = chol
	case MethodFISTA:
		sigma := sv.kron.largestSingular(60)
		if sigma == 0 {
			return nil, fmt.Errorf("sparse: dictionary has zero norm")
		}
		sv.lip = sigma * sigma
	default:
		return nil, fmt.Errorf("sparse: unknown method %v", o.method)
	}
	return sv, nil
}

// gram returns the Gram matrix AAᴴ = (GGᴴ)⊗(SSᴴ) of A = G⊗S and
// ||A||_F^2 = ||G||_F^2 ||S||_F^2, so the dense m x n x m product never runs;
// TestSolveExactKronecker holds both to 1e-12 relative agreement with the
// dense forms.
func gram(g, s *cmat.Matrix) (*cmat.Matrix, float64) {
	gn, sn := g.FrobNorm(), s.FrobNorm()
	return cmat.Kron(cmat.Mul(g, g.H()), cmat.Mul(s, s.H())), gn * gn * sn * sn
}

// Dict materialises the dense dictionary G⊗S. It is built on every call;
// only greedy OMP, which needs the atoms as columns, asks for it.
func (s *Solver) Dict() *cmat.Matrix { return cmat.Kron(s.kron.g, s.kron.s) }

// DictMulH returns Aᴴ y through the factors (callers computing
// data-dependent regularization like kappa = ratio * max ||row(AᴴY)|| then
// share the solver's fast path).
func (s *Solver) DictMulH(y *cmat.Matrix) *cmat.Matrix {
	out := cmat.New(s.kron.cols(), y.Cols())
	s.kron.mulHInto(y, out, s.kronScratch())
	return out
}

// Solve recovers a sparse coefficient vector for a single measurement y,
// minimizing 1/2||Ax-y||^2 + kappa||x||_1.
func (s *Solver) Solve(y []complex128, kappa float64) (*Result, error) {
	if len(y) != s.kron.rows() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, len(y), s.kron.rows())
	}
	ym := cmat.New(len(y), 1)
	ym.SetCol(0, y)
	return s.SolveMulti(ym, kappa)
}

// SolveMulti recovers jointly sparse coefficients for multiple snapshots
// (columns of y), minimizing 1/2||AX-Y||_F^2 + kappa * sum_i ||X_i,:||_2 —
// the l2,1 group-sparse program of l1-SVD fusion. With a single column it
// reduces exactly to Solve.
func (s *Solver) SolveMulti(y *cmat.Matrix, kappa float64) (*Result, error) {
	if y.Rows() != s.kron.rows() {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimensionMismatch, y.Rows(), s.kron.rows())
	}
	if kappa < 0 {
		return nil, fmt.Errorf("sparse: kappa must be nonnegative, got %v", kappa)
	}
	switch s.opts.method {
	case MethodADMM:
		return s.solveADMM(y, kappa)
	default:
		return s.solveFISTA(y, kappa)
	}
}

// matHook invokes the iteration hook with the row magnitudes of z.
func (s *Solver) matHook(iter int, z *cmat.Matrix, buf []float64) {
	if s.opts.hook == nil {
		return
	}
	rowMagsInto(z, buf)
	s.opts.hook(iter, buf)
}

func rowMagsInto(x *cmat.Matrix, dst []float64) {
	d := x.Data()
	k := x.Cols()
	for i := 0; i < x.Rows(); i++ {
		var n2 float64
		for _, v := range d[i*k : (i+1)*k] {
			n2 += real(v)*real(v) + imag(v)*imag(v)
		}
		dst[i] = math.Sqrt(n2)
	}
}

func (s *Solver) solveADMM(y *cmat.Matrix, kappa float64) (*Result, error) {
	n := s.kron.cols()
	m := s.kron.rows()
	k := y.Cols()
	rho := s.opts.rho

	// All iteration scratch is allocated here, never inside the loop, and
	// never stored on the Solver (Solvers are shared across goroutines).
	x := cmat.New(n, k)
	z := cmat.New(n, k)
	u := cmat.New(n, k)
	zOld := cmat.New(n, k)
	v := cmat.New(n, k)
	av := cmat.New(m, k)
	w := cmat.New(m, k)
	atw := cmat.New(n, k)
	fwd := make([]complex128, m)
	bwd := make([]complex128, m)
	rowBuf := make([]complex128, k)
	mags := make([]float64, n)
	kscratch := s.kronScratch()

	aty := cmat.New(n, k)
	s.kron.mulHInto(y, aty, kscratch)

	rhoC := complex(rho, 0)
	inv := complex(1/rho, 0)
	t := kappa / rho
	vd, atyD, zd, ud, xd, atwD, zOldD := v.Data(), aty.Data(), z.Data(), u.Data(), x.Data(), atw.Data(), zOld.Data()
	iters := 0
	converged := false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		for idx := range vd {
			vd[idx] = atyD[idx] + rhoC*(zd[idx]-ud[idx])
		}
		// x-update by the Woodbury identity: x = (v - Aᴴ(rho I + AAᴴ)⁻¹ A v)/rho.
		s.kron.mulInto(v, av, kscratch)
		s.chol.SolveBatchInto(av, w, fwd, bwd)
		s.kron.mulHInto(w, atw, kscratch)
		for idx := range xd {
			xd[idx] = (vd[idx] - atwD[idx]) * inv
		}

		copy(zOldD, zd)
		for i := 0; i < n; i++ {
			xrow, urow := xd[i*k:(i+1)*k], ud[i*k:(i+1)*k]
			for j := range rowBuf {
				rowBuf[j] = xrow[j] + urow[j]
			}
			GroupSoftThreshold(zd[i*k:(i+1)*k], rowBuf, t)
		}

		for idx := range ud {
			ud[idx] = ud[idx] + xd[idx] - zd[idx]
		}

		s.matHook(it, z, mags)

		priRes := subFrobNorm(x, z)
		dualRes := rho * subFrobNorm(z, zOld)
		dim := math.Sqrt(float64(n * k))
		priEps := s.opts.absTol*dim + s.opts.relTol*math.Max(x.FrobNorm(), z.FrobNorm())
		dualEps := s.opts.absTol*dim + s.opts.relTol*rho*u.FrobNorm()
		if priRes <= priEps && dualRes <= dualEps {
			converged = true
			break
		}
	}

	rowMagsInto(z, mags)
	res := &Result{
		Solver:     s.opts.method.String(),
		X:          matToColumns(z),
		RowMags:    mags,
		Iterations: iters,
		Converged:  converged,
		Objective:  s.objective(z, y, kappa, av, kscratch),
	}
	s.tele.record(res)
	return res, nil
}

func (s *Solver) solveFISTA(y *cmat.Matrix, kappa float64) (*Result, error) {
	n := s.kron.cols()
	m := s.kron.rows()
	k := y.Cols()
	step := 1 / s.lip
	t := kappa * step

	// All iteration scratch is allocated here, never inside the loop, and
	// never stored on the Solver (Solvers are shared across goroutines).
	x := cmat.New(n, k) // current iterate
	xPrev := cmat.New(n, k)
	w := cmat.New(n, k)    // extrapolation point
	aw := cmat.New(m, k)   // A w, then the residual A w - Y in place
	grad := cmat.New(n, k) // Aᴴ(Aw - Y)
	rowBuf := make([]complex128, k)
	mags := make([]float64, n)
	theta := 1.0
	kscratch := s.kronScratch()

	xd, pd, wd, gd := x.Data(), xPrev.Data(), w.Data(), grad.Data()
	stepC := complex(step, 0)
	iters := 0
	converged := false
	for it := 1; it <= s.opts.maxIters; it++ {
		iters = it
		// Gradient of the smooth part at w: Aᴴ(Aw - Y).
		s.kron.mulInto(w, aw, kscratch)
		subInto(aw, y, aw)
		s.kron.mulHInto(aw, grad, kscratch)
		copy(pd, xd)
		for i := 0; i < n; i++ {
			wrow, grow := wd[i*k:(i+1)*k], gd[i*k:(i+1)*k]
			for j := range rowBuf {
				rowBuf[j] = wrow[j] - stepC*grow[j]
			}
			GroupSoftThreshold(xd[i*k:(i+1)*k], rowBuf, t)
		}

		thetaNext := (1 + math.Sqrt(1+4*theta*theta)) / 2
		beta := complex((theta-1)/thetaNext, 0)
		for idx := range wd {
			wd[idx] = xd[idx] + beta*(xd[idx]-pd[idx])
		}
		theta = thetaNext

		s.matHook(it, x, mags)

		diff := subFrobNorm(x, xPrev)
		ref := math.Max(x.FrobNorm(), 1e-12)
		tol := s.opts.absTol + s.opts.relTol*ref
		if diff <= tol {
			converged = true
			break
		}
	}

	rowMagsInto(x, mags)
	res := &Result{
		Solver:     s.opts.method.String(),
		X:          matToColumns(x),
		RowMags:    mags,
		Iterations: iters,
		Converged:  converged,
		Objective:  s.objective(x, y, kappa, aw, kscratch),
	}
	s.tele.record(res)
	return res, nil
}

// objective evaluates 1/2||AX-Y||_F^2 + kappa*sum_i ||X_i||_2 using the
// caller's m x k scratch ax.
func (s *Solver) objective(x, y *cmat.Matrix, kappa float64, ax *cmat.Matrix, kscratch []complex128) float64 {
	s.kron.mulInto(x, ax, kscratch)
	fit := subFrobNorm(ax, y)
	var l1 float64
	for i := 0; i < x.Rows(); i++ {
		l1 += rowNorm(x.RowView(i))
	}
	return 0.5*fit*fit + kappa*l1
}

// kronScratch returns the intermediate buffer the factored matvecs need.
func (s *Solver) kronScratch() []complex128 {
	return make([]complex128, s.kron.scratchLen())
}

func matToColumns(x *cmat.Matrix) [][]complex128 {
	out := make([][]complex128, x.Cols())
	for j := 0; j < x.Cols(); j++ {
		out[j] = x.Col(j)
	}
	return out
}
