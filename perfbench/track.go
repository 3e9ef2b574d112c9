package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"roarray/internal/core"
	"roarray/internal/serve"
	"roarray/internal/testbed"
)

const (
	// trackWalkers is the number of moving targets, each a closed loop.
	trackWalkers = 2
	// trackEpochs is the length of one trajectory; each trajectory runs in
	// a fresh sticky session.
	trackEpochs = 20
)

// walk is one generated trajectory as /v1/track bodies without a session
// id, plus ground truth per epoch.
type walk struct {
	epochs []serve.TrackRequest
	truth  []core.Point
}

func newWalk(ps *serve.Preset, epochs int, seed int64) (*walk, error) {
	traj, err := ps.Deployment.GenerateTrajectory(testbed.TrajectoryPlan{Epochs: epochs}, seed)
	if err != nil {
		return nil, err
	}
	reqs, truth, err := ps.Deployment.TrajectoryRequests(traj, ps.Packets, testbed.ScenarioConfig{}, seed)
	if err != nil {
		return nil, err
	}
	w := &walk{truth: truth}
	for e, r := range reqs {
		w.epochs = append(w.epochs, serve.TrackRequest{Request: *serve.FromCore(r), Seq: int64(e + 1), TSeconds: traj.Points[e].T})
	}
	return w, nil
}

// trackOp is one measured epoch with the body it sent.
type trackOp struct {
	served
	body []byte
}

func runTrackWalk(o opts) (*result, error) {
	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		return nil, err
	}
	warmWalk, err := newWalk(ps, httpWarmOps+1, opSeed(o.seed, -1_000))
	if err != nil {
		return nil, err
	}
	var warm [][]byte
	for _, ep := range warmWalk.epochs {
		b, err := json.Marshal(ep) // one fresh session per warm-up epoch
		if err != nil {
			return nil, err
		}
		warm = append(warm, b)
	}
	h, err := startHTTP(o, "/v1/track", warm)
	if err != nil {
		return nil, err
	}
	defer h.abort()
	if err := h.openWindow(); err != nil {
		return nil, err
	}

	// Closed loops: each walker streams its trajectories epoch by epoch,
	// starting a fresh session per trajectory, until the window closes.
	url := h.url("/v1/track")
	perWalker := make([][]trackOp, trackWalkers)
	errs := make([]error, trackWalkers)
	var mu sync.Mutex // guards violations recorded by walkers
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(o.seconds)
	for wi := 0; wi < trackWalkers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				w, err := newWalk(ps, trackEpochs, opSeed(o.seed, wi*1_000_000+k))
				if err != nil {
					errs[wi] = err
					return
				}
				sid := ""
				for e := range w.epochs {
					if !time.Now().Before(deadline) {
						break
					}
					ep := w.epochs[e]
					ep.SessionID = sid
					body, err := json.Marshal(ep)
					if err != nil {
						errs[wi] = err
						return
					}
					x := post(h.client, url, body)
					if bad := sessionProblem(&x, sid, ep.Seq); bad != "" {
						mu.Lock()
						h.res.violate(fmt.Sprintf("walker %d trajectory %d epoch %d: %s", wi, k, e+1, bad))
						mu.Unlock()
						x.class = "invalid"
					}
					if sid == "" && x.class == "ok" {
						sid = x.resp.SessionID
					}
					perWalker[wi] = append(perWalker[wi], trackOp{served{x: x, due: x.sent, truth: w.truth[e]}, body})
				}
			}
		}(wi)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := h.closeWindow(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var ops []served
	var bodies [][]byte
	for _, w := range perWalker {
		for _, op := range w {
			ops = append(ops, op.served)
			bodies = append(bodies, op.body)
		}
	}
	var windowed, fallback, reacquired int
	var cells sample
	for i := range ops {
		x := &ops[i].x
		if x.class != "ok" {
			continue
		}
		raw := core.Point{X: x.resp.X, Y: x.resp.Y}
		smooth := core.Point{X: x.resp.SmoothedX, Y: x.resp.SmoothedY}
		if !h.checkPosition(fmt.Sprintf("epoch %d fix", i), raw) || !h.checkPosition(fmt.Sprintf("epoch %d track", i), smooth) {
			x.class = "invalid"
			continue
		}
		cells = append(cells, float64(x.resp.CellsEvaluated))
		if x.resp.Windowed {
			windowed++
		}
		if x.resp.Fallback {
			fallback++
		}
		if x.resp.Reacquired {
			reacquired++
		}
	}
	h.report(ops, wall, o.tailQ, func(r *wireResponse) core.Point { return core.Point{X: r.SmoothedX, Y: r.SmoothedY} })
	n := float64(max(len(cells), 1))
	h.res.set("core.track.windowed_frac", float64(windowed)/n, "ratio", len(cells))
	h.res.set("core.track.fallback_frac", float64(fallback)/n, "ratio", len(cells))
	h.res.set("core.track.reacquired_frac", float64(reacquired)/n, "ratio", len(cells))
	h.res.set("core.grid.cells_p50", cells.median(), "count", len(cells))
	if o.trace {
		h.traceHTTP(ops, bodies, decodeTrackRequest, func() any { return new(serve.TrackResponse) })
	}
	return h.res, nil
}

// sessionProblem checks the sticky-session contract on one epoch: no 5xx,
// the session id echoed (or minted on the first epoch) and the sequence
// number echoed.
func sessionProblem(x *exchange, sid string, seq int64) string {
	switch {
	case x.class == "5xx":
		return x.err.Error()
	case x.class != "ok":
		return ""
	case x.resp.SessionID == "":
		return "no session id in the answer"
	case sid != "" && x.resp.SessionID != sid:
		return fmt.Sprintf("session id %q, want %q", x.resp.SessionID, sid)
	case x.resp.Seq != seq:
		return fmt.Sprintf("seq %d echoed for %d", x.resp.Seq, seq)
	}
	return ""
}

// decodeTrackRequest parses a /v1/track body as the server does.
func decodeTrackRequest(body []byte) error {
	var w serve.TrackRequest
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	if err := w.ValidateTrack(); err != nil {
		return err
	}
	_, err := w.ToCore()
	return err
}
