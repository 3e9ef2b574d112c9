package sparse

import (
	"math/cmplx"

	"roarray/internal/cmat"
)

// kronOps applies a dictionary A = G⊗S without ever touching the dense
// matrix: A[(l*M+m), (t*C+i)] = G[l][t] * S[m][i] for a row factor G (L x T)
// and a column factor S (M x C) — exactly the shape of the joint space-delay
// steering dictionary, whose atoms are products of a delay response and an
// array response — so a matvec factors into two small contractions. For the
// paper's dimensions (90 x 920 from factors 30 x 20 and 3 x 46) that is ~18x
// fewer multiplies per iteration than the dense product.
//
// A plain dictionary a is the trivial pair [1]⊗a. The contractions then
// reduce to the dense products in cmat's accumulation order — per output
// element the same terms summed in ascending order, times the exact unit —
// so they equal cmat.Mul and cmat.MulH (TestKernelsBitIdentical).
type kronOps struct {
	ll, tt int // row factor shape (L x T)
	mm, cc int // column factor shape (M x C)
	// Private copies of the factors plus precomputed conjugates, so the
	// per-iteration contractions run on raw slices.
	g, s         *cmat.Matrix
	gConj, sConj []complex128
}

func newKronOps(g, s *cmat.Matrix) *kronOps {
	k := &kronOps{
		ll: g.Rows(), tt: g.Cols(),
		mm: s.Rows(), cc: s.Cols(),
		g: g.Clone(), s: s.Clone(),
	}
	k.gConj = conjData(k.g)
	k.sConj = conjData(k.s)
	return k
}

func conjData(m *cmat.Matrix) []complex128 {
	out := make([]complex128, len(m.Data()))
	for i, v := range m.Data() {
		out[i] = cmplx.Conj(v)
	}
	return out
}

// rows and cols are the shape of the dictionary G⊗S.
func (k *kronOps) rows() int { return k.ll * k.mm }
func (k *kronOps) cols() int { return k.tt * k.cc }

// scratchLen is the intermediate buffer length mulInto/mulHInto need.
func (k *kronOps) scratchLen() int { return k.mm * k.tt }

// mulInto computes out = A v for v with nc columns:
// P[m][t] = sum_i S[m][i] v[(t*C+i)]  then  out[(l*M+m)] = sum_t G[l][t] P[m][t].
func (k *kronOps) mulInto(v, out *cmat.Matrix, scratch []complex128) {
	nc := v.Cols()
	vd, od := v.Data(), out.Data()
	gd, sd := k.g.Data(), k.s.Data()
	for c := 0; c < nc; c++ {
		for t := 0; t < k.tt; t++ {
			base := t*k.cc*nc + c
			for m := 0; m < k.mm; m++ {
				srow := sd[m*k.cc : (m+1)*k.cc]
				var acc complex128
				idx := base
				for _, sv := range srow {
					acc += sv * vd[idx]
					idx += nc
				}
				scratch[m*k.tt+t] = acc
			}
		}
		for l := 0; l < k.ll; l++ {
			grow := gd[l*k.tt : (l+1)*k.tt]
			obase := l*k.mm*nc + c
			for m := 0; m < k.mm; m++ {
				prow := scratch[m*k.tt : (m+1)*k.tt]
				var acc complex128
				for t, gv := range grow {
					acc += gv * prow[t]
				}
				od[obase+m*nc] = acc
			}
		}
	}
}

// mulHInto computes out = Aᴴ w for w with nc columns:
// Q[m][t] = sum_l conj(G[l][t]) w[(l*M+m)]  then
// out[(t*C+i)] = sum_m conj(S[m][i]) Q[m][t].
func (k *kronOps) mulHInto(w, out *cmat.Matrix, scratch []complex128) {
	nc := w.Cols()
	wd, od := w.Data(), out.Data()
	for c := 0; c < nc; c++ {
		for m := 0; m < k.mm; m++ {
			qrow := scratch[m*k.tt : (m+1)*k.tt]
			for t := range qrow {
				qrow[t] = 0
			}
			for l := 0; l < k.ll; l++ {
				wv := wd[(l*k.mm+m)*nc+c]
				if wv == 0 {
					continue
				}
				grow := k.gConj[l*k.tt : (l+1)*k.tt]
				for t, gv := range grow {
					qrow[t] += gv * wv
				}
			}
		}
		for t := 0; t < k.tt; t++ {
			obase := t*k.cc*nc + c
			for i := 0; i < k.cc; i++ {
				var acc complex128
				for m := 0; m < k.mm; m++ {
					acc += k.sConj[m*k.cc+i] * scratch[m*k.tt+t]
				}
				od[obase+i*nc] = acc
			}
		}
	}
}

// largestSingular returns ||A||_2 by cmat's power iteration on AᴴA, run
// through the factored matvecs. On the trivial pair it is
// cmat.PowerIterationLargestSingular's result bit for bit; on a factor pair
// it is the same iteration on the dense product, to rounding
// (TestLipschitzExactKronecker).
func (k *kronOps) largestSingular(iters int) float64 {
	v, av, w := cmat.New(k.cols(), 1), cmat.New(k.rows(), 1), cmat.New(k.cols(), 1)
	scratch := make([]complex128, k.scratchLen())
	return cmat.PowerIterationGram(k.cols(), iters, func(x []complex128) []complex128 {
		copy(v.Data(), x)
		k.mulInto(v, av, scratch)
		k.mulHInto(av, w, scratch)
		return w.Data()
	})
}
