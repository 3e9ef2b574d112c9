package sparse

import (
	"math"
	"math/cmplx"
	"testing"

	"roarray/internal/cmat"
)

// kernelMat builds a deterministic dense complex matrix with a few exact
// zeros sprinkled in, so the zero-skip branches of the kernels are exercised.
func kernelMat(rows, cols, salt int) *cmat.Matrix {
	m := cmat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if (i*cols+j+salt)%11 == 0 {
				continue // leave an exact zero
			}
			ph := 2 * math.Pi * math.Mod(float64((i+2)*(j+5)+salt)*0.173, 1)
			sc := 0.3 + math.Mod(float64(i*j+salt)*0.071, 1)
			m.Set(i, j, complex(sc*math.Cos(ph), sc*math.Sin(ph)))
		}
	}
	return m
}

func requireBitEqual(t *testing.T, name string, got, want *cmat.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: element (%d,%d) = %v, want %v (must be bitwise identical)",
					name, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestKernelsBitIdentical pins the bit contract of the solver's iteration
// kernels. A plain dictionary is the Kronecker pair [1]⊗a, and its factored
// products must equal the dense cmat products exactly (==) on matrices with
// exact zeros — this keeps solves on plain dictionaries (the AoA solver, the
// dense references in tests) on exactly the dense products' arithmetic.
// The allocation-free elementwise kernels of kernels.go reproduce their cmat
// primitives the same way.
func TestKernelsBitIdentical(t *testing.T) {
	const m, n, k = 17, 29, 3
	a := kernelMat(m, n, 1)
	v := kernelMat(n, k, 2)
	wm := kernelMat(m, k, 3)
	pair := newKronOps(unitFactor, a)
	scratch := make([]complex128, pair.scratchLen())

	t.Run("mulInto_vs_Mul", func(t *testing.T) {
		got := cmat.New(m, k)
		pair.mulInto(v, got, scratch)
		requireBitEqual(t, "mulInto", got, cmat.Mul(a, v))
	})

	t.Run("mulInto_vs_MulVec", func(t *testing.T) {
		got := cmat.New(m, k)
		pair.mulInto(v, got, scratch)
		want := cmat.New(m, k)
		for j := 0; j < k; j++ {
			want.SetCol(j, a.MulVec(v.Col(j)))
		}
		requireBitEqual(t, "mulInto", got, want)
	})

	t.Run("mulHInto_vs_MulH", func(t *testing.T) {
		got := cmat.New(n, k)
		pair.mulHInto(wm, got, scratch)
		requireBitEqual(t, "mulHInto", got, cmat.MulH(a, wm))
	})

	t.Run("mulHInto_vs_MulVecH", func(t *testing.T) {
		got := cmat.New(n, k)
		pair.mulHInto(wm, got, scratch)
		want := cmat.New(n, k)
		for j := 0; j < k; j++ {
			want.SetCol(j, a.MulVecH(wm.Col(j)))
		}
		requireBitEqual(t, "mulHInto", got, want)
	})

	t.Run("subInto_vs_Sub", func(t *testing.T) {
		b := kernelMat(m, n, 4)
		got := cmat.New(m, n)
		subInto(a, b, got)
		requireBitEqual(t, "subInto", got, cmat.Sub(a, b))
	})

	t.Run("subFrobNorm_vs_Sub_FrobNorm", func(t *testing.T) {
		b := kernelMat(m, n, 5)
		got := subFrobNorm(a, b)
		want := cmat.Sub(a, b).FrobNorm()
		if got != want {
			t.Fatalf("subFrobNorm = %v, want %v (must be bitwise identical)", got, want)
		}
	})

	t.Run("SolveBatchInto_vs_Solve", func(t *testing.T) {
		g := cmat.Mul(a, a.H())
		for i := 0; i < m; i++ {
			g.Set(i, i, g.At(i, i)+complex(float64(n), 0))
		}
		chol, err := cmat.CholeskyDecompose(g)
		if err != nil {
			t.Fatal(err)
		}
		got := cmat.New(m, k)
		chol.SolveBatchInto(wm, got, make([]complex128, m), make([]complex128, m))
		want := cmat.New(m, k)
		for j := 0; j < k; j++ {
			want.SetCol(j, chol.Solve(wm.Col(j)))
		}
		requireBitEqual(t, "SolveBatchInto", got, want)
	})
}

// kronFactors builds a small Kronecker pair shaped like the joint steering
// dictionary's delay and array factors (unit-modulus phase ramps) plus the
// dense product they tile.
func kronFactors(ll, tt, mm, cc int) (g, s, dense *cmat.Matrix) {
	g = cmat.New(ll, tt)
	for l := 0; l < ll; l++ {
		for t := 0; t < tt; t++ {
			ph := 2 * math.Pi * math.Mod(float64(l*(t+1))*0.083, 1)
			g.Set(l, t, cmplx.Rect(1, ph))
		}
	}
	s = cmat.New(mm, cc)
	for m := 0; m < mm; m++ {
		for i := 0; i < cc; i++ {
			ph := 2 * math.Pi * math.Mod(float64(m*(i+2))*0.199, 1)
			s.Set(m, i, cmplx.Rect(1, ph))
		}
	}
	dense = cmat.New(ll*mm, tt*cc)
	for l := 0; l < ll; l++ {
		for m := 0; m < mm; m++ {
			for t := 0; t < tt; t++ {
				for i := 0; i < cc; i++ {
					dense.Set(l*mm+m, t*cc+i, g.At(l, t)*s.At(m, i))
				}
			}
		}
	}
	return g, s, dense
}

// TestKronOpsMatchDense checks the factored matvecs against the dense products
// within floating-point tolerance (they associate sums differently, so exact
// equality is not expected).
func TestKronOpsMatchDense(t *testing.T) {
	g, s, dense := kronFactors(6, 5, 3, 7)
	ops := newKronOps(g, s)
	scratch := make([]complex128, ops.scratchLen())
	m, n, k := dense.Rows(), dense.Cols(), 2

	v := kernelMat(n, k, 6)
	gotAv := cmat.New(m, k)
	ops.mulInto(v, gotAv, scratch)
	if want := cmat.Mul(dense, v); !cmat.EqualApprox(gotAv, want, 1e-10) {
		t.Fatalf("kron mulInto deviates from dense product by %v", cmat.Sub(gotAv, want).MaxAbs())
	}

	w := kernelMat(m, k, 7)
	gotAtw := cmat.New(n, k)
	ops.mulHInto(w, gotAtw, scratch)
	if want := cmat.MulH(dense, w); !cmat.EqualApprox(gotAtw, want, 1e-10) {
		t.Fatalf("kron mulHInto deviates from dense product by %v", cmat.Sub(gotAtw, want).MaxAbs())
	}
}

// TestNewKronSolverValidation checks that NewKronSolver refuses a missing
// factor and an all-zero dictionary, and that the solver's shape is the
// Kronecker product's.
func TestNewKronSolverValidation(t *testing.T) {
	g, s, dense := kronFactors(6, 5, 3, 7)

	if _, err := NewKronSolver(g, nil); err == nil {
		t.Fatal("missing column factor accepted")
	}
	if _, err := NewKronSolver(nil, s); err == nil {
		t.Fatal("missing row factor accepted")
	}
	for _, method := range []Method{MethodADMM, MethodFISTA} {
		if _, err := NewKronSolver(cmat.New(6, 5), s, WithMethod(method)); err == nil {
			t.Fatalf("%v: zero dictionary accepted", method)
		}
	}
	sv, err := NewKronSolver(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Solve(make([]complex128, dense.Rows()-1), 0.1); err == nil {
		t.Fatal("measurement of the wrong length accepted")
	}
	requireBitEqual(t, "Dict", sv.Dict(), cmat.Kron(g, s))
}

// TestKronSolverMatchesDense runs the same group-LASSO problem through a
// solver on the dense product and one on its factors and requires matching
// spectra:
// same argmax atom and row magnitudes agreeing to well below peak-detection
// resolution.
func TestKronSolverMatchesDense(t *testing.T) {
	g, s, dense := kronFactors(10, 8, 3, 9)
	n := dense.Cols()
	x := cmat.New(n, 2)
	x.Set(n/4, 0, complex(1, 0.3))
	x.Set(n/4, 1, complex(0.9, 0.1))
	x.Set(2*n/3, 0, complex(0.5, -0.2))
	y := cmat.Mul(dense, x)

	for _, method := range []Method{MethodADMM, MethodFISTA} {
		plain, err := NewSolver(dense, WithMethod(method), WithMaxIters(150))
		if err != nil {
			t.Fatal(err)
		}
		kron, err := NewKronSolver(g, s, WithMethod(method), WithMaxIters(150))
		if err != nil {
			t.Fatal(err)
		}
		resPlain, err := plain.SolveMulti(y, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		resKron, err := kron.SolveMulti(y, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		argPlain, argKron := 0, 0
		for i := range resPlain.RowMags {
			if d := math.Abs(resPlain.RowMags[i] - resKron.RowMags[i]); d > worst {
				worst = d
			}
			if resPlain.RowMags[i] > resPlain.RowMags[argPlain] {
				argPlain = i
			}
			if resKron.RowMags[i] > resKron.RowMags[argKron] {
				argKron = i
			}
		}
		if argPlain != argKron {
			t.Fatalf("%v: argmax differs: dense %d vs kron %d", method, argPlain, argKron)
		}
		if worst > 1e-6 {
			t.Fatalf("%v: spectra deviate by %v", method, worst)
		}
	}
}
