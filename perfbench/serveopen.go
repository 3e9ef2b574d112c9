package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roarray/internal/core"
	"roarray/internal/serve"
	"roarray/internal/testbed"
)

const (
	// openRate is the Poisson arrival rate of serve-open, fixed so a faster
	// server shows as lower latency and CPU rather than as more load. Two
	// connections carry about 100 req/s while the machine runs fast and
	// about 60 when it runs slow; at 50 req/s the slow phases queued at the
	// client (p50 up to twice its usual value, up to 8% of requests past
	// the 250 ms objective), so the rate stays at half the slow-phase
	// capacity.
	openRate = 30.0
	// openChecks responses are re-localized in process and must match.
	openChecks = 200
)

func runServeOpen(o opts) (*result, error) {
	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		return nil, err
	}
	// The arrival schedule and one distinct payload per arrival, all from
	// the seed.
	rng := rand.New(rand.NewSource(o.seed))
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / openRate * float64(time.Second))
		if t >= o.seconds {
			break
		}
		due = append(due, t)
	}
	reqs, truth, err := ps.Deployment.BatchRequests(len(due), ps.Packets, testbed.ScenarioConfig{}, opSeed(o.seed, 0))
	if err != nil {
		return nil, err
	}
	bodies, err := encodeAll(reqs)
	if err != nil {
		return nil, err
	}
	warmReqs, _, err := ps.Deployment.BatchRequests(httpWarmOps+1, ps.Packets, testbed.ScenarioConfig{}, opSeed(o.seed, -1_000))
	if err != nil {
		return nil, err
	}
	warm, err := encodeAll(warmReqs)
	if err != nil {
		return nil, err
	}

	h, err := startHTTP(o, "/v1/localize", warm)
	if err != nil {
		return nil, err
	}
	defer h.abort()
	if err := h.openWindow(); err != nil {
		return nil, err
	}

	// Open loop: nproc callers take arrivals in schedule order, each sent
	// at its due time or as soon as a caller frees up, and timed from when
	// it was due.
	ops := make([]served, len(due))
	url := h.url("/v1/localize")
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				time.Sleep(time.Until(at))
				ops[i] = served{x: post(h.client, url, bodies[i]), due: at, truth: truth[i]}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := h.closeWindow(); err != nil {
		return nil, err
	}

	// Validity: every answer is a finite in-room position with one result
	// per link.
	var late sample
	for i := range ops {
		op := &ops[i]
		late = append(late, ms(op.x.sent.Sub(op.due)))
		if op.x.class != "ok" {
			continue
		}
		if len(op.x.resp.Links) != len(reqs[i].Links) {
			h.res.violate(fmt.Sprintf("request %d: %d link results for %d links", i, len(op.x.resp.Links), len(reqs[i].Links)))
			op.x.class = "invalid"
			continue
		}
		if !h.checkPosition(fmt.Sprintf("request %d", i), core.Point{X: op.x.resp.X, Y: op.x.resp.Y}) {
			op.x.class = "invalid"
		}
	}
	h.res.note("open-loop generator lateness p50 %.3f ms, p99 %.3f ms over %d arrivals at %.0f/s", late.median(), late.quantile(0.99), len(late), openRate)
	h.report(ops, wall, o.tailQ, func(r *wireResponse) core.Point { return core.Point{X: r.X, Y: r.Y} })
	if err := checkAgainstEngine(h, ps, ops, bodies, o.seed); err != nil {
		return nil, err
	}
	if o.trace {
		h.traceHTTP(ops, bodies, decodeRequest, func() any { return new(serve.Response) })
	}
	return h.res, nil
}

// encodeAll renders core requests as /v1/localize bodies.
func encodeAll(reqs []*core.LocalizeRequest) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(serve.FromCore(r))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// decodeRequest parses a /v1/localize body as the server does: JSON into
// serve.Request, then Request.ToCore.
func decodeRequest(body []byte) error {
	var w serve.Request
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	_, err := w.ToCore()
	return err
}

// checkAgainstEngine re-localizes a seeded subset of the answered requests
// in process, on an engine built from the same preset, and requires the
// position and every link AoA to match the HTTP answer bit for bit. It
// runs after the server has stopped, outside the window.
func checkAgainstEngine(h *httpRun, ps *serve.Preset, ops []served, bodies [][]byte, seed int64) error {
	est, err := core.NewEstimator(ps.Estimator)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(est, 0)
	if err != nil {
		return err
	}
	var answered []int
	for i := range ops {
		if ops[i].x.class == "ok" {
			answered = append(answered, i)
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(answered), func(a, b int) { answered[a], answered[b] = answered[b], answered[a] })
	n, same := min(openChecks, len(answered)), 0
	for _, i := range answered[:n] {
		var w serve.Request
		if err := json.Unmarshal(bodies[i], &w); err != nil {
			return err
		}
		req, err := w.ToCore()
		if err != nil {
			return err
		}
		ref, err := eng.Localize(req)
		if err != nil {
			h.res.violate(fmt.Sprintf("request %d: in-process Engine.Localize: %v", i, err))
			continue
		}
		got := &ops[i].x.resp
		if d := diffWire(ref, got); d != "" {
			h.res.violate(fmt.Sprintf("request %d: HTTP answer differs from Engine.Localize: %s", i, d))
			continue
		}
		same++
	}
	h.res.note("HTTP vs in-process Engine.Localize: %d/%d answers bit-identical", same, n)
	return nil
}

func diffWire(ref *core.LocalizeResult, got *wireResponse) string {
	if math.Float64bits(ref.Position.X) != math.Float64bits(got.X) || math.Float64bits(ref.Position.Y) != math.Float64bits(got.Y) {
		return fmt.Sprintf("position %v vs (%v, %v)", ref.Position, got.X, got.Y)
	}
	if len(ref.Links) != len(got.Links) {
		return "link count"
	}
	for k := range ref.Links {
		if math.Float64bits(ref.Links[k].AoADeg) != math.Float64bits(got.Links[k].AoADeg) {
			return fmt.Sprintf("link %d AoA %v vs %v", k, ref.Links[k].AoADeg, got.Links[k].AoADeg)
		}
	}
	return ""
}
