package sparse

import (
	"math"
	"testing"

	"roarray/internal/cmat"
)

// benchProblem builds a deterministic bench-sized LASSO instance: a
// unit-modulus dictionary (the shape of a joint AoA/ToA steering dictionary)
// and a k-column observation generated from a 2-sparse ground truth plus a
// small deterministic perturbation.
func benchProblem(m, n, k int) (*cmat.Matrix, *cmat.Matrix) {
	a := cmat.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ph := 2 * math.Pi * math.Mod(float64((i+1)*(j+3))*0.137, 1)
			a.Set(i, j, complex(math.Cos(ph), math.Sin(ph)))
		}
	}
	x := cmat.New(n, k)
	for j := 0; j < k; j++ {
		x.Set((n/3+17*j)%n, j, complex(1, 0.2))
		x.Set((2*n/3+11*j)%n, j, complex(0.6, -0.1))
	}
	y := cmat.Mul(a, x)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			ph := 2 * math.Pi * math.Mod(float64(i*k+j)*0.311, 1)
			y.Set(i, j, y.At(i, j)+complex(0.05*math.Cos(ph), 0.05*math.Sin(ph)))
		}
	}
	return a, y
}

func benchSolver(b *testing.B, a *cmat.Matrix, opts ...Option) *Solver {
	b.Helper()
	s, err := NewSolver(a, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchKronSolver(b *testing.B, g, s *cmat.Matrix, opts ...Option) *Solver {
	b.Helper()
	sv, err := NewKronSolver(g, s, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sv
}

// BenchmarkADMMCold measures one full ADMM solve on the joint dictionary as
// a plain dense matrix (the trivial pair [1]⊗A) at the batch benchmark's
// dimensions (90 x 920, 2 fused snapshots, 150-iteration cap). It shares its
// data with BenchmarkADMMKron, so the pair's ratio is the factored path's
// gain.
func BenchmarkADMMCold(b *testing.B) {
	_, _, a, y := benchKronProblem(2)
	s := benchSolver(b, a, WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKronProblem builds the same joint-dictionary shape from explicit
// Kronecker factors (30 x 20 delay factor, 3 x 46 AoA factor — the paper's
// dimensions), so the factored dictionary can be measured against its dense
// product on identical data.
func benchKronProblem(k int) (g, s, dense, y *cmat.Matrix) {
	g = cmat.New(30, 20)
	for l := 0; l < 30; l++ {
		for t := 0; t < 20; t++ {
			ph := 2 * math.Pi * math.Mod(float64(l*(t+1))*0.083, 1)
			g.Set(l, t, complex(math.Cos(ph), math.Sin(ph)))
		}
	}
	s = cmat.New(3, 46)
	for m := 0; m < 3; m++ {
		for i := 0; i < 46; i++ {
			ph := 2 * math.Pi * math.Mod(float64(m*(i+2))*0.199, 1)
			s.Set(m, i, complex(math.Cos(ph), math.Sin(ph)))
		}
	}
	dense = cmat.New(90, 920)
	for l := 0; l < 30; l++ {
		for m := 0; m < 3; m++ {
			for t := 0; t < 20; t++ {
				for i := 0; i < 46; i++ {
					dense.Set(l*3+m, t*46+i, g.At(l, t)*s.At(m, i))
				}
			}
		}
	}
	x := cmat.New(920, k)
	for j := 0; j < k; j++ {
		x.Set((300+17*j)%920, j, complex(1, 0.2))
		x.Set((610+11*j)%920, j, complex(0.6, -0.1))
	}
	y = cmat.Mul(dense, x)
	return g, s, dense, y
}

// BenchmarkADMMKron is BenchmarkADMMCold on the dictionary's Kronecker
// factors — the configuration of every joint solve in core.
func BenchmarkADMMKron(b *testing.B) {
	g, s, _, y := benchKronProblem(2)
	sv := benchKronSolver(b, g, s, WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkADMMKronK1 measures the single-snapshot case (k=1), the shape of
// the median solve in the batch benchmark.
func BenchmarkADMMKronK1(b *testing.B) {
	g, s, _, y := benchKronProblem(1)
	sv := benchKronSolver(b, g, s, WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFISTACold mirrors BenchmarkADMMCold for the proximal-gradient
// path used by the solver ablation and the fallback chain.
func BenchmarkFISTACold(b *testing.B) {
	a, y := benchProblem(90, 920, 2)
	s := benchSolver(b, a, WithMethod(MethodFISTA), WithMaxIters(150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SolveMulti(y, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
