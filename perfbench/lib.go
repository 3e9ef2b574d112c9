package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"roarray/internal/core"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/testbed"
	"roarray/internal/wireless"
)

// Library working point: the paper radio (3 antennas x 30 subcarriers) on
// roabench's figure grid (46 AoA x 20 ToA atoms, 150-iteration cap), each
// fix from 4 APs x 4-packet bursts. Everything else is a library default.
const (
	libThetaPoints = 46
	libTauPoints   = 20
	libIters       = 150
	libAPs         = 4
	libPackets     = 4
	// libFixedOps is the evaluation set every run localizes first, however
	// long its window: 34 placements per SNR band drawn from a fixed stream
	// (libEvalSeed), the same on every run. Accuracy and the solver and grid
	// counts are taken over it; the median error of 100 seeded placements
	// spreads about 0.2 (quartile distance over median) from seed to seed,
	// wider than any bound a gate could use. 102 fixes also leave ten
	// samples beyond p90 for latency_tail_ms. Fixes past the set are drawn
	// from the run seed.
	libFixedOps = 102
	libEvalSeed = 20170605
	// libCheckOps is how many traced ops are re-run through Engine.Localize
	// after the window to prove the decomposition bit-identical.
	libCheckOps = 6
	libWarmOps  = 2
	libSetups   = 15
	// libSLO is the latency objective slo_attain counts against: the 10 s
	// objective roaserve's paper preset sets for the paper radio.
	libSLO = 10 * time.Second
)

var bands = [...]testbed.SNRBand{testbed.BandHigh, testbed.BandMedium, testbed.BandLow}

func libConfig() core.Config {
	ofdm := wireless.Intel5300OFDM()
	return core.Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, libThetaPoints),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), libTauPoints),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(libIters)},
	}
}

// libInput builds fix i of a run: a fresh client placement, cycling the
// high/medium/low SNR bands, from the evaluation stream for the first
// libFixedOps fixes and from the run seed after them. Warm-up fixes use
// negative i and the run seed.
func libInput(dep *testbed.Deployment, seed int64, i int) (*core.LocalizeRequest, core.Point, error) {
	band := bands[(i%3+3)%3]
	if i >= 0 && i < libFixedOps {
		seed = libEvalSeed
	}
	reqs, truth, err := dep.BatchRequests(1, libPackets, testbed.ScenarioConfig{Band: band}, opSeed(seed, i))
	if err != nil {
		return nil, core.Point{}, err
	}
	req := reqs[0]
	req.Links = req.Links[:libAPs]
	return req, truth[0], nil
}

// opSeed derives the input seed of op i from the run seed.
func opSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// libFix is what one localization fix yielded.
type libFix struct {
	pos    core.Point
	links  []core.LinkResult
	search core.SearchStats
}

func runLib(o opts) (*result, error) {
	res := newResult(o)
	dep := testbed.Default()

	// Set-up: estimator construction plus the eager dictionary and
	// factorization build. The first build serves the run; the others are
	// spread over the measured loop, between timed calls, so the median
	// samples the machine at several moments rather than in one burst.
	var setups, builds sample
	setup := func() (*core.Estimator, error) {
		t0 := time.Now()
		e, err := core.NewEstimator(libConfig())
		if err != nil {
			return nil, fmt.Errorf("estimator: %w", err)
		}
		t1 := time.Now()
		if err := e.Warmup(); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		builds = append(builds, ms(t2.Sub(t1)))
		return e, nil
	}
	est, err := setup()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(est, 0)
	if err != nil {
		return nil, err
	}
	res.env = append(res.env, fmt.Sprintf("engine workers %d", eng.Workers()))

	var rec *recorder
	if o.trace {
		rec = newRecorder(time.Now())
	}
	fixOnce := func(req *core.LocalizeRequest, op int64) (*libFix, error) {
		if rec != nil {
			return decomposedFix(eng, req, rec, op)
		}
		out, err := eng.Localize(req)
		if err != nil {
			return nil, err
		}
		return &libFix{pos: out.Position, links: out.Links, search: out.Search}, nil
	}

	warm := res.phase("warmup")
	for k := 0; k < libWarmOps; k++ {
		req, _, err := libInput(dep, o.seed, -1-k)
		if err != nil {
			return nil, err
		}
		warm.sent++
		if _, err := eng.Localize(req); err != nil {
			warm.count("error")
			continue
		}
		warm.count("ok")
	}

	meas := res.phase("measured")
	var lat, locErr sample
	var iters, cells sample
	var solves, nonconv, degraded int
	var busyCPU, busyWall time.Duration
	inSLO := 0
	type kept struct {
		req    *core.LocalizeRequest
		fix    *libFix
		traced time.Duration
	}
	var checks []kept
	checkRng := rand.New(rand.NewSource(o.seed))
	start := time.Now()
	deadline := start.Add(o.seconds)
	var setupWall time.Duration
	for i := 0; i < libFixedOps || time.Now().Before(deadline); i++ {
		if len(setups) < libSetups && i%(libFixedOps/(libSetups-1)) == 0 {
			t0 := time.Now()
			if _, err := setup(); err != nil {
				return nil, err
			}
			setupWall += time.Since(t0)
		}
		req, truth, err := libInput(dep, o.seed, i)
		if err != nil {
			return nil, err
		}
		meas.sent++
		runtime.GC() // keep collector work from the input build out of the timed call
		c0 := rusageCPU()
		t0 := time.Now()
		fix, err := fixOnce(req, int64(i)+1)
		dt := time.Since(t0)
		dc := rusageCPU() - c0
		busyWall += dt
		busyCPU += dc
		if err != nil {
			meas.count("error")
			res.violate(fmt.Sprintf("fix %d: %v", i, err))
			continue
		}
		if bad := positionProblem(fix.pos, req.Bounds); bad != "" {
			meas.count("invalid")
			res.violate(fmt.Sprintf("fix %d: %s", i, bad))
			continue
		}
		meas.count("ok")
		lat = append(lat, ms(dt))
		if dt <= libSLO {
			inSLO++
		}
		if i < libFixedOps {
			locErr = append(locErr, fix.pos.Dist(truth))
			cells = append(cells, float64(fix.search.Evaluated()))
			for _, l := range fix.links {
				if l.Err != nil {
					degraded++
				}
				if l.Solve.Solver == "" {
					continue
				}
				solves++
				iters = append(iters, float64(l.Solve.Iterations))
				if !l.Solve.Converged {
					nonconv++
				}
			}
		}
		if rec != nil && len(checks) < libCheckOps && checkRng.Intn(4) == 0 {
			checks = append(checks, kept{req, fix, dt})
		}
	}
	wall := time.Since(start) - setupWall

	// Outside the window: the traced decomposition must match
	// Engine.Localize bit for bit on a seeded subset of its ops.
	same := 0
	var overhead sample
	for k, c := range checks {
		t0 := time.Now()
		ref, err := eng.Localize(c.req)
		overhead = append(overhead, ms(c.traced-time.Since(t0)))
		if err != nil {
			res.violate(fmt.Sprintf("check %d: Engine.Localize: %v", k, err))
			continue
		}
		if d := diffFix(&libFix{pos: ref.Position, links: ref.Links, search: ref.Search}, c.fix); d != "" {
			res.violate(fmt.Sprintf("check %d: decomposition differs from Engine.Localize: %s", k, d))
			continue
		}
		same++
	}
	if rec != nil {
		res.note("decomposition vs Engine.Localize: %d/%d ops bit-identical", same, len(checks))
		res.note("tracing overhead: traced op minus untraced Engine.Localize on the same input, median %.3f ms over %d ops (includes the duplicated alignment; below the op-to-op noise when negative)", overhead.median(), len(overhead))
	}

	ok := meas.ok()
	res.outcome(meas.sent, ok)
	res.set("latency_p50_ms", lat.median(), "ms", len(lat))
	res.tail(lat, o.tailQ)
	res.set("throughput_per_s", float64(ok)/wall.Seconds(), "1/s", ok)
	res.set("cpu_ms_per_op", ms(busyCPU)/float64(max(ok, 1)), "ms", ok)
	res.set("slo_attain", float64(inSLO)/float64(max(meas.sent, 1)), "ratio", meas.sent)
	res.set("loc_err_p50_m", locErr.median(), "m", len(locErr))
	res.set("setup_s", setups.median(), "s", len(setups))
	res.set("peak_rss_mb", peakRSSMB("self"), "MB", 1)
	res.note("links degraded to broadside in the fixed prefix: %d", degraded)

	res.set("sparse.iterations_per_solve", iters.mean(), "count", len(iters))
	res.set("sparse.nonconverged_frac", float64(nonconv)/float64(max(solves, 1)), "ratio", solves)
	res.set("sparse.solves_per_op", float64(solves)/float64(max(len(cells), 1)), "count", len(cells))
	res.set("core.grid.cells_p50", cells.median(), "count", len(cells))
	res.set("core.dict.build_ms", builds.median(), "ms", len(builds))
	res.set("proc.cpu_util", busyCPU.Seconds()/busyWall.Seconds()/float64(runtime.GOMAXPROCS(0)), "ratio", ok)
	if rec != nil {
		for _, l := range []string{"sanitize", "align", "estimate", "peak", "grid"} {
			d := rec.durations("core." + l)
			res.set("core."+l+".ms_p50", d.median(), "ms", len(d))
		}
		res.rec = rec
	}
	return res, nil
}

// decomposedFix reproduces Engine.Localize step by step through the public
// core functions, with a span around each call: per link SanitizeBurst,
// AlignAndFilter, EstimateJointFusedInfoCtx and DirectPath, fanned over the
// engine's worker count as the engine does, then LocalizeSearch. The align
// span times a separate AlignAndFilter call on the sanitized burst; the
// estimate call repeats the alignment internally, so the align work is
// counted twice and shows up as tracing overhead.
func decomposedFix(eng *core.Engine, req *core.LocalizeRequest, rec *recorder, op int64) (*libFix, error) {
	root := rec.open("op", op, 0)
	defer rec.done(root)
	est := eng.Estimator()
	cfg := est.Config()
	links := make([]core.LinkResult, len(req.Links))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(eng.Workers(), len(req.Links)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				links[i] = decomposedLink(est, cfg, &req.Links[i], rec, op, root)
			}
		}()
	}
	for i := range req.Links {
		next <- i
	}
	close(next)
	wg.Wait()

	obs := make([]core.APObservation, len(req.Links))
	for i, in := range req.Links {
		obs[i] = core.APObservation{Pos: in.Pos, AxisDeg: in.AxisDeg, AoADeg: links[i].AoADeg,
			RSSIdBm: in.RSSIdBm, Confidence: links[i].Confidence}
	}
	g := rec.open("core.grid", op, root)
	pos, stats, err := core.LocalizeSearch(obs, req.Bounds, req.Step, eng.Workers(), cfg.Search)
	rec.done(g)
	if err != nil {
		return nil, err
	}
	return &libFix{pos: pos, links: links, search: stats}, nil
}

// decomposedLink is the per-link half of decomposedFix. Links the sanitizer
// rejects or whose burst it touched are reported as failures: the engine's
// confidence floor is not public, so those paths cannot be reproduced from
// outside and the bitwise check would flag them.
func decomposedLink(est *core.Estimator, cfg core.Config, in *core.LinkInput, rec *recorder, op, root int64) core.LinkResult {
	const broadside = 90.0
	s := rec.open("core.sanitize", op, root)
	packets, rep, err := core.SanitizeBurst(in.Packets, cfg.Array.NumAntennas, cfg.OFDM.NumSubcarriers)
	rec.done(s)
	if err != nil || !rep.Clean() {
		return core.LinkResult{AoADeg: broadside, Err: fmt.Errorf("sanitizer touched the burst: %+v %v", rep, err)}
	}
	a := rec.open("core.align", op, root)
	core.AlignAndFilter(packets, cfg.OFDM)
	rec.done(a)
	e := rec.open("core.estimate", op, root)
	spec, info, err := est.EstimateJointFusedInfoCtx(context.Background(), packets)
	rec.done(e)
	if err != nil {
		return core.LinkResult{AoADeg: broadside, Err: err, Solve: info}
	}
	p := rec.open("core.peak", op, root)
	peak, err := est.DirectPath(spec)
	rec.done(p)
	if err != nil {
		return core.LinkResult{AoADeg: broadside, Err: err, Solve: info}
	}
	return core.LinkResult{AoADeg: peak.ThetaDeg, Peak: peak, Solve: info}
}

// diffFix describes the first bitwise difference between two fixes ("" when
// identical).
func diffFix(a, b *libFix) string {
	if math.Float64bits(a.pos.X) != math.Float64bits(b.pos.X) || math.Float64bits(a.pos.Y) != math.Float64bits(b.pos.Y) {
		return fmt.Sprintf("position %v vs %v", a.pos, b.pos)
	}
	if a.search != b.search {
		return fmt.Sprintf("search %+v vs %+v", a.search, b.search)
	}
	if len(a.links) != len(b.links) {
		return "link count"
	}
	for i := range a.links {
		x, y := a.links[i], b.links[i]
		if math.Float64bits(x.AoADeg) != math.Float64bits(y.AoADeg) || x.Peak != y.Peak ||
			math.Float64bits(x.Confidence) != math.Float64bits(y.Confidence) || x.Solve != y.Solve ||
			(x.Err == nil) != (y.Err == nil) {
			return fmt.Sprintf("link %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// positionProblem reports a non-finite or out-of-room position.
func positionProblem(p core.Point, room core.Rect) string {
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
		return fmt.Sprintf("non-finite position %v", p)
	}
	if p.X < room.MinX || p.X > room.MaxX || p.Y < room.MinY || p.Y > room.MaxY {
		return fmt.Sprintf("position %v outside room %+v", p, room)
	}
	return ""
}
