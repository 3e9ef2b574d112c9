package sparse

import (
	"math"

	"roarray/internal/cmat"
)

// This file holds the allocation-free elementwise kernels behind the solver
// loops. Each reproduces the operation sequence of the cmat primitive it
// replaces, so using it changes no bits (TestKernelsBitIdentical pins this);
// the win is that the loops reuse buffers instead of allocating per
// iteration.

// subInto computes out = a - b elementwise.
func subInto(a, b, out *cmat.Matrix) {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || out.Rows() != a.Rows() || out.Cols() != a.Cols() {
		panic("sparse: subInto shape mismatch")
	}
	ad, bd, od := a.Data(), b.Data(), out.Data()
	for i := range od {
		od[i] = ad[i] - bd[i]
	}
}

// subFrobNorm returns ||a - b||_F, summing |a_ij - b_ij|^2 in the row-major
// element order of cmat.Sub followed by FrobNorm — the same bits without the
// intermediate matrix.
func subFrobNorm(a, b *cmat.Matrix) float64 {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		panic("sparse: subFrobNorm shape mismatch")
	}
	ad, bd := a.Data(), b.Data()
	var s float64
	for i := range ad {
		d := ad[i] - bd[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s)
}
