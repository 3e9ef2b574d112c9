package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"roarray/internal/core"
	"roarray/internal/serve"
)

const (
	// httpSetups is how many times a run boots roaserve to time set-up:
	// half before the window, the last of which serves the run, and the
	// rest after it, so the median samples the machine at two moments.
	httpSetups = 11
	// httpWarmOps are sent after boot and kept out of every metric.
	httpWarmOps = 20
)

// httpRun is the state shared by the two HTTP workloads: the server under
// test, the client, and the readings taken around the measured window.
type httpRun struct {
	res    *result
	preset *serve.Preset
	client *http.Client
	srv    *server
	setups sample
	bin    string // roaserve binary
	path   string // endpoint the boots are timed against
	warm   []byte // the body that times a boot

	before, after       solverCounts
	cpuBefore, cpuAfter serverCPU
	peakRSS             float64
}

// startHTTP times the boots of roaserve that precede the window (each
// until its first 200 on path), keeps the last server running, and sends
// it the warm-up bodies.
func startHTTP(o opts, path string, warm [][]byte) (*httpRun, error) {
	ps, err := serve.LookupPreset("smoke")
	if err != nil {
		return nil, err
	}
	h := &httpRun{res: newResult(o), preset: ps, client: newClient(runtime.NumCPU()), bin: o.roaserve, path: path, warm: warm[0]}
	if err := h.boots(httpSetups / 2); err != nil {
		return nil, err
	}
	s, d, err := bootServer(h.bin, h.client, h.path, h.warm)
	if err != nil {
		return nil, err
	}
	h.setups = append(h.setups, d.Seconds())
	h.srv = s
	wp := h.res.phase("warmup")
	for _, body := range warm[1:] {
		wp.sent++
		wp.count(post(h.client, h.url(path), body).class)
	}
	return h, nil
}

// boots times n throwaway boots of roaserve, each stopped again.
func (h *httpRun) boots(n int) error {
	for k := 0; k < n; k++ {
		s, d, err := bootServer(h.bin, h.client, h.path, h.warm)
		if err != nil {
			return err
		}
		h.setups = append(h.setups, d.Seconds())
		if err := s.stop(); err != nil {
			h.res.violate(fmt.Sprintf("set-up boot: %v", err))
		}
	}
	return nil
}

func (h *httpRun) url(path string) string { return "http://" + h.srv.addr + path }

// openWindow takes the server readings that open the measured window.
func (h *httpRun) openWindow() error {
	m, err := h.srv.scrape(h.client)
	if err != nil {
		return err
	}
	h.before = solverTotals(m)
	h.cpuBefore, err = h.srv.cpu()
	return err
}

// closeWindow takes the closing readings, drains and stops the server, and
// times the remaining set-up boots.
func (h *httpRun) closeWindow() error {
	var err error
	if h.cpuAfter, err = h.srv.cpu(); err != nil {
		return err
	}
	m, err := h.srv.scrape(h.client)
	if err != nil {
		return err
	}
	h.after = solverTotals(m)
	h.peakRSS = peakRSSMB(fmt.Sprint(h.srv.pid))
	if err := h.srv.stop(); err != nil {
		h.res.violate(err.Error())
	}
	h.srv = nil
	return h.boots(httpSetups - len(h.setups))
}

// abort stops a server left running by an error path.
func (h *httpRun) abort() {
	if h != nil && h.srv != nil {
		_ = h.srv.stop()
	}
}

// served is one measured HTTP op: the exchange plus when it was due (equal
// to sent for closed loops) and its ground truth.
type served struct {
	x     exchange
	due   time.Time
	truth core.Point
}

// report fills the metrics common to both HTTP workloads from the measured
// ops. loc picks the position scored against ground truth.
func (h *httpRun) report(ops []served, wall time.Duration, tailQ float64, loc func(*wireResponse) core.Point) {
	r := h.res
	meas := r.phase("measured")
	var lat, locErr, server, queue, wire, batch sample
	slo := h.preset.SLO.LatencyObjective
	inSLO := 0
	for i := range ops {
		op := &ops[i]
		meas.sent++
		meas.count(op.x.class)
		if op.x.class != "ok" {
			continue
		}
		d := op.x.done.Sub(op.due)
		lat = append(lat, ms(d))
		if d <= slo {
			inSLO++
		}
		locErr = append(locErr, loc(&op.x.resp).Dist(op.truth))
		server = append(server, op.x.resp.TotalMillis)
		queue = append(queue, op.x.resp.QueueMillis)
		batch = append(batch, float64(op.x.resp.BatchSize))
		wire = append(wire, ms(op.x.done.Sub(op.x.sent))-op.x.resp.TotalMillis)
	}
	ok := meas.ok()
	r.outcome(meas.sent, ok)
	cpu := h.cpuAfter.cpu - h.cpuBefore.cpu
	cpuWall := h.cpuAfter.wall.Sub(h.cpuBefore.wall)
	r.set("latency_p50_ms", lat.median(), "ms", len(lat))
	r.tail(lat, tailQ)
	r.set("throughput_per_s", float64(ok)/wall.Seconds(), "1/s", ok)
	r.set("cpu_ms_per_op", ms(cpu)/float64(max(meas.sent, 1)), "ms", meas.sent)
	r.set("slo_attain", float64(inSLO)/float64(max(meas.sent, 1)), "ratio", meas.sent)
	r.set("loc_err_p50_m", locErr.median(), "m", len(locErr))
	r.set("setup_s", h.setups.median(), "s", len(h.setups))
	r.set("peak_rss_mb", h.peakRSS, "MB", 1)

	d := h.after.minus(h.before)
	r.set("sparse.iterations_per_solve", d.iterations/math.Max(d.solves, 1), "count", int(d.solves))
	r.set("sparse.nonconverged_frac", d.nonconverged/math.Max(d.solves, 1), "ratio", int(d.solves))
	r.set("sparse.solves_per_op", d.solves/float64(max(meas.sent, 1)), "count", meas.sent)
	r.set("serve.server_ms_p50", server.median(), "ms", len(server))
	r.set("serve.queue_ms_p50", queue.median(), "ms", len(queue))
	r.set("serve.batch_size_mean", batch.mean(), "count", len(batch))
	r.set("serve.wire_ms_p50", wire.median(), "ms", len(wire))
	r.set("proc.cpu_util", cpu.Seconds()/cpuWall.Seconds()/float64(runtime.GOMAXPROCS(0)), "ratio", ok)
	r.note("server CPU %.3f s over %.3f s of window", cpu.Seconds(), cpuWall.Seconds())
}

// checkPosition records a violation for a non-finite or out-of-room
// position and reports whether it was valid.
func (h *httpRun) checkPosition(what string, p core.Point) bool {
	if bad := positionProblem(p, h.preset.Deployment.Room); bad != "" {
		h.res.violate(what + ": " + bad)
		return false
	}
	return true
}

// traceHTTP turns the measured ops into spans — op (from due to answer),
// client.wait (due to send), http (send to answer) and, inside it,
// serve.server and serve.queue placed at the end of the round trip from
// the durations the server reports — then replays the server's JSON
// decode (plus Request.ToCore) and response encode on this run's own
// bodies. Everything here runs after the window from timestamps the
// untraced run takes as well, so it adds no work inside the window.
// decode parses one request body the way the server does; newResp returns
// a fresh value of the server's response type to re-encode.
func (h *httpRun) traceHTTP(ops []served, bodies [][]byte, decode func([]byte) error, newResp func() any) {
	rec := newRecorder(h.cpuBefore.wall)
	roots := make([]int64, len(ops))
	for i := range ops {
		op := &ops[i]
		id := int64(i) + 1
		root := rec.add("op", id, 0, op.due, op.x.done)
		roots[i] = root
		if op.x.sent.After(op.due) {
			rec.add("client.wait", id, root, op.due, op.x.sent)
		}
		hs := rec.add("http", id, root, op.x.sent, op.x.done)
		if op.x.class != "ok" {
			continue
		}
		total := time.Duration(op.x.resp.TotalMillis * float64(time.Millisecond))
		srvStart := op.x.done.Add(-total)
		ss := rec.add("serve.server", id, hs, srvStart, op.x.done)
		rec.add("serve.queue", id, ss, srvStart, srvStart.Add(time.Duration(op.x.resp.QueueMillis*float64(time.Millisecond))))
	}
	var decodeMs, encodeMs sample
	for i := range ops {
		if ops[i].x.class != "ok" {
			continue
		}
		id := int64(i) + 1
		t0 := time.Now()
		if err := decode(bodies[i]); err != nil {
			h.res.violate(fmt.Sprintf("replay decode of op %d: %v", i, err))
			continue
		}
		t1 := time.Now()
		v := newResp()
		if err := json.Unmarshal(ops[i].x.raw, v); err != nil {
			h.res.violate(fmt.Sprintf("replay response of op %d: %v", i, err))
			continue
		}
		t2 := time.Now()
		if _, err := json.Marshal(v); err != nil {
			h.res.violate(fmt.Sprintf("replay encode of op %d: %v", i, err))
			continue
		}
		t3 := time.Now()
		rec.add("serve.decode", id, roots[i], t0, t1)
		rec.add("serve.encode", id, roots[i], t2, t3)
		decodeMs = append(decodeMs, ms(t1.Sub(t0)))
		encodeMs = append(encodeMs, ms(t3.Sub(t2)))
	}
	h.res.set("serve.decode_ms_p50", decodeMs.median(), "ms", len(decodeMs))
	h.res.set("serve.encode_ms_p50", encodeMs.median(), "ms", len(encodeMs))
	h.res.note("tracing overhead: none inside the window (spans are built afterwards from timestamps the untraced run also takes); decode/encode replay is outside it")
	h.res.rec = rec
}
