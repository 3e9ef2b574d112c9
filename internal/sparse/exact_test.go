package sparse

import (
	"math"
	"testing"

	"roarray/internal/cmat"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// Bounds of the dense-vs-factored cross-check, stated in DESIGN.md §13. The
// dense reference is the joint dictionary as a plain matrix (NewSolver, the
// trivial pair [1]⊗A); the factored solver is NewKronSolver(G, S).
const (
	// solveExactBound caps max_i |dense_i - kron_i| / max_i dense_i over the
	// row magnitudes (the spectrum) of the two ADMM solves.
	solveExactBound = 1e-9
	// gramExactBound caps the relative deviation of the factored Gram
	// (GGᴴ)⊗(SSᴴ) and scale ||G||_F^2 ||S||_F^2 from the dense AAᴴ and
	// ||A||_F^2.
	gramExactBound = 1e-12
	// lipExactBound caps the relative deviation of the factored FISTA
	// Lipschitz constant from the dense power iteration's ||A||_2^2.
	lipExactBound = 1e-12
)

// jointFactors builds the joint space-delay dictionary exactly as core does
// (wireless.JointSteeringVector, tau-major columns) together with its delay
// factor G (L x Ntau) and AoA factor S (M x Ntheta).
func jointFactors(arr wireless.Array, ofdm wireless.OFDM, thetaPts, tauPts int) (g, s, a *cmat.Matrix) {
	thetas := spectra.UniformGrid(0, 180, thetaPts)
	taus := spectra.UniformGrid(0, ofdm.MaxToA(), tauPts)
	g = cmat.New(ofdm.NumSubcarriers, len(taus))
	for t, tau := range taus {
		gam, cur := ofdm.PhaseFactor(tau), complex(1, 0)
		for l := 0; l < ofdm.NumSubcarriers; l++ {
			g.Set(l, t, cur)
			cur *= gam
		}
	}
	s = cmat.New(arr.NumAntennas, len(thetas))
	for i, th := range thetas {
		s.SetCol(i, arr.SteeringVector(th))
	}
	a = cmat.New(arr.NumAntennas*ofdm.NumSubcarriers, len(thetas)*len(taus))
	col := 0
	for _, tau := range taus {
		for _, th := range thetas {
			a.SetCol(col, wireless.JointSteeringVector(arr, ofdm, th, tau))
			col++
		}
	}
	return g, s, a
}

// TestSolveExactKronecker is the solver-level twin of core's SearchExact: on
// the joint dictionaries the library and the smoke server actually solve
// against, ADMM on the Kronecker factors must reproduce the dense solve's
// spectrum within solveExactBound, and the factored Gram and rho must match
// the dense ones within gramExactBound.
func TestSolveExactKronecker(t *testing.T) {
	cases := []struct {
		name             string
		ofdm             wireless.OFDM
		thetaPts, tauPts int
		iters            int
	}{
		{"localize-lib", wireless.Intel5300OFDM(), 46, 20, 150},
		{"smoke", wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}, 19, 8, 60},
	}
	arr := wireless.Intel5300Array()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, s, a := jointFactors(arr, tc.ofdm, tc.thetaPts, tc.tauPts)

			denseG, denseF2 := cmat.Mul(a, a.H()), a.FrobNorm()*a.FrobNorm()
			kronG, kronF2 := gram(g, s)
			if d := cmat.Sub(kronG, denseG).MaxAbs() / denseG.MaxAbs(); d > gramExactBound {
				t.Fatalf("factored Gram deviates %.3g relative from dense AAᴴ (bound %g)", d, gramExactBound)
			}
			if d := math.Abs(kronF2-denseF2) / denseF2; d > gramExactBound {
				t.Fatalf("factored ||A||_F^2 deviates %.3g relative (bound %g)", d, gramExactBound)
			}

			dense, err := NewSolver(a, WithMaxIters(tc.iters))
			if err != nil {
				t.Fatal(err)
			}
			kron, err := NewKronSolver(g, s, WithMaxIters(tc.iters))
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(kron.opts.rho-dense.opts.rho) / dense.opts.rho; d > gramExactBound {
				t.Fatalf("factored rho %v deviates %.3g relative from dense %v", kron.opts.rho, d, dense.opts.rho)
			}

			y := exactMeasurement(t, arr, tc.ofdm)
			kappa := 0.25 * maxRowNorm(cmat.MulH(a, y))
			rd, err := dense.SolveMulti(y, kappa)
			if err != nil {
				t.Fatal(err)
			}
			rk, err := kron.SolveMulti(y, kappa)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Iterations != rk.Iterations {
				t.Fatalf("iterations differ: dense %d, factored %d", rd.Iterations, rk.Iterations)
			}
			var peak, worst float64
			for i, m := range rd.RowMags {
				peak = math.Max(peak, m)
				worst = math.Max(worst, math.Abs(m-rk.RowMags[i]))
			}
			rel := worst / peak
			t.Logf("spectrum deviation %.3g of the peak, %d iterations", rel, rd.Iterations)
			if rel > solveExactBound {
				t.Fatalf("factored spectrum deviates %.3g of the peak from dense (bound %g)", rel, solveExactBound)
			}
		})
	}
}

// TestLipschitzExactKronecker: the FISTA step size comes from a power
// iteration through the factored matvecs. On the paper (91 x 50), library (46 x 20) and
// smoke (19 x 8) joint dictionaries it must match the dense power iteration
// on A within lipExactBound, and on a plain dictionary (the trivial pair)
// exactly.
func TestLipschitzExactKronecker(t *testing.T) {
	arr := wireless.Intel5300Array()
	cases := []struct {
		name             string
		ofdm             wireless.OFDM
		thetaPts, tauPts int
	}{
		{"paper", wireless.Intel5300OFDM(), 91, 50},
		{"localize-lib", wireless.Intel5300OFDM(), 46, 20},
		{"smoke", wireless.OFDM{NumSubcarriers: 8, SubcarrierSpacing: 4e6}, 19, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, s, a := jointFactors(arr, tc.ofdm, tc.thetaPts, tc.tauPts)
			sigma := cmat.PowerIterationLargestSingular(a, 60)
			dense := sigma * sigma
			kron, err := NewKronSolver(g, s, WithMethod(MethodFISTA))
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(kron.lip-dense) / dense
			t.Logf("factored Lipschitz constant deviates %.3g relative", rel)
			if rel > lipExactBound {
				t.Fatalf("factored Lipschitz %v deviates %.3g relative from dense %v (bound %g)", kron.lip, rel, dense, lipExactBound)
			}
			plain, err := NewSolver(a, WithMethod(MethodFISTA))
			if err != nil {
				t.Fatal(err)
			}
			if plain.lip != dense {
				t.Fatalf("trivial-pair Lipschitz %v != dense power iteration %v", plain.lip, dense)
			}
		})
	}
}

// exactMeasurement synthesizes a two-packet multipath burst for the radio,
// stacked as the columns of Y the way core feeds the joint solver.
func exactMeasurement(t *testing.T, arr wireless.Array, ofdm wireless.OFDM) *cmat.Matrix {
	t.Helper()
	gen, err := wireless.NewGenerator(&wireless.ChannelConfig{
		Array: arr,
		OFDM:  ofdm,
		Paths: []wireless.Path{
			{AoADeg: 62, ToA: 35e-9, Gain: 1},
			{AoADeg: 128, ToA: 180e-9, Gain: 0.6},
		},
		SNRdB: 15,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	y := cmat.New(arr.NumAntennas*ofdm.NumSubcarriers, 2)
	for p := 0; p < y.Cols(); p++ {
		pkt, err := gen.Packet()
		if err != nil {
			t.Fatal(err)
		}
		y.SetCol(p, pkt.StackedVector())
	}
	return y
}

func maxRowNorm(m *cmat.Matrix) float64 {
	var mx float64
	for i := 0; i < m.Rows(); i++ {
		var n2 float64
		for _, v := range m.RowView(i) {
			n2 += real(v)*real(v) + imag(v)*imag(v)
		}
		mx = math.Max(mx, n2)
	}
	return math.Sqrt(mx)
}
