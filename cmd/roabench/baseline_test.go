package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"roarray/internal/cmat"
	"roarray/internal/core"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// batchBaseline mirrors the slice of the committed BENCH_batch.json this
// gate reads (produced by `make bless-batch`).
type batchBaseline struct {
	MedianErrM float64 `json:"medianErrM"`
	Identical  bool    `json:"identical"`
	Metrics    map[string]json.RawMessage
}

// denseMedianErrM is the batch benchmark's median localization error at the
// bless-batch flags with every joint solve on the dense dictionary. The
// factored solve agrees with the dense one to rounding
// (sparse.TestSolveExactKronecker), so the median must not move.
const denseMedianErrM = 0.4343576063881308

// TestCommittedBatchBaseline gates the committed BENCH_batch.json artifact,
// recorded on the default (Kronecker-factored) path: serial and parallel
// runs must agree bit for bit, accuracy must match the dense reference, and
// the per-solve latency must hold the factored path's win. The p50 ceiling
// is half the pre-optimization baseline (0.04927 s per solve), so
// re-blessing an artifact that silently lost the speedup fails here instead
// of landing. The factored-over-dense ratio itself is re-measured live.
func TestCommittedBatchBaseline(t *testing.T) {
	// Half the committed pre-optimization core.solve.seconds p50.
	const maxSolveP50 = 0.0247

	raw, err := os.ReadFile("../../BENCH_batch.json")
	if err != nil {
		t.Fatalf("read committed artifact: %v", err)
	}
	var base batchBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("parse committed artifact: %v", err)
	}

	if !base.Identical {
		t.Fatal("committed artifact reports serial/parallel divergence")
	}
	if d := math.Abs(base.MedianErrM - denseMedianErrM); d > 1e-9 {
		t.Fatalf("median error %v differs from the dense reference %v by %.3g m — the factored path changed accuracy",
			base.MedianErrM, denseMedianErrM, d)
	}

	var hist struct {
		P50 float64 `json:"p50"`
		N   int64   `json:"count"`
	}
	rawHist, ok := base.Metrics["core.solve.seconds"]
	if !ok {
		t.Fatal("committed artifact has no core.solve.seconds histogram")
	}
	if err := json.Unmarshal(rawHist, &hist); err != nil {
		t.Fatalf("parse core.solve.seconds: %v", err)
	}
	if hist.N == 0 {
		t.Fatal("core.solve.seconds histogram is empty")
	}
	if hist.P50 > maxSolveP50 {
		t.Fatalf("core.solve.seconds p50 = %v s exceeds the %v s gate (half the pre-optimization baseline)",
			hist.P50, maxSolveP50)
	}

	r := kronSpeedup(t)
	t.Logf("factored over dense: %.1fx", r)
	if r < 2 {
		t.Fatalf("factored joint solve is only %.2fx faster than dense, want >= 2x", r)
	}
}

// kronSpeedup times ADMM on the batch benchmark's joint dictionary (46 x 20
// grid, Intel 5300 radio, 150 iterations) as a plain dense matrix
// (sparse.NewSolver on BuildJointDictionary) and on its Kronecker factors
// (sparse.NewKronSolver), on the same measurement, and returns dense time
// over factored time. Solves alternate and each side keeps its fastest of three, so a
// noisy neighbor slows both sides rather than skewing the ratio.
func kronSpeedup(t *testing.T) float64 {
	t.Helper()
	arr, ofdm := wireless.Intel5300Array(), wireless.Intel5300OFDM()
	thetas := spectra.UniformGrid(0, 180, 46)
	taus := spectra.UniformGrid(0, ofdm.MaxToA(), 20)
	dict := core.BuildJointDictionary(arr, ofdm, thetas, taus)
	dense, err := sparse.NewSolver(dict, sparse.WithMaxIters(150))
	if err != nil {
		t.Fatal(err)
	}
	kron, err := sparse.NewKronSolver(core.BuildDelayDictionary(ofdm, taus), core.BuildAoADictionary(arr, thetas),
		sparse.WithMaxIters(150))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := wireless.NewGenerator(&wireless.ChannelConfig{
		Array: arr, OFDM: ofdm,
		Paths: []wireless.Path{{AoADeg: 62, ToA: 35e-9, Gain: 1}, {AoADeg: 128, ToA: 180e-9, Gain: 0.6}},
		SNRdB: 15,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	y := cmat.New(dict.Rows(), 2)
	for p := 0; p < y.Cols(); p++ {
		pkt, err := gen.Packet()
		if err != nil {
			t.Fatal(err)
		}
		y.SetCol(p, pkt.StackedVector())
	}
	// kappa as core picks it: a quarter of the largest row norm of AᴴY.
	var kappa float64
	aty := cmat.MulH(dict, y)
	for i := 0; i < aty.Rows(); i++ {
		kappa = math.Max(kappa, 0.25*cmat.Norm2(aty.Row(i)))
	}
	best := func(s *sparse.Solver, cur time.Duration) time.Duration {
		start := time.Now()
		if _, err := s.SolveMulti(y, kappa); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var dt, kt time.Duration
	for rep := 0; rep < 3; rep++ {
		dt = best(dense, dt)
		kt = best(kron, kt)
	}
	return float64(dt) / float64(kt)
}
