package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The benchmark's own view of roaserve's JSON bodies. Only the fields read
// here are declared; a field the server later drops decodes as zero instead
// of breaking the build.
type wireLink struct {
	AoADeg float64 `json:"aoaDeg"`
}

type wireResponse struct {
	X           float64    `json:"x"`
	Y           float64    `json:"y"`
	Links       []wireLink `json:"links"`
	BatchSize   int        `json:"batchSize"`
	QueueMillis float64    `json:"queueMillis"`
	TotalMillis float64    `json:"totalMillis"`
	// Tracking fields (/v1/track only).
	SessionID      string  `json:"sessionId"`
	Seq            int64   `json:"seq"`
	SmoothedX      float64 `json:"smoothedX"`
	SmoothedY      float64 `json:"smoothedY"`
	Windowed       bool    `json:"windowed"`
	Fallback       bool    `json:"fallback"`
	Reacquired     bool    `json:"reacquired"`
	CellsEvaluated int     `json:"cellsEvaluated"`
}

// server is one roaserve child process on loopback ports it chose itself.
type server struct {
	cmd         *exec.Cmd
	addr        string // host:port of the API listener
	metricsAddr string // host:port of the /metrics listener
	pid         int

	mu     sync.Mutex
	stderr []string // every stderr line, for diagnostics
	exited chan struct{}
}

// startServer execs roaserve and returns once it reports both listeners.
// The child gets SIGKILL if this process dies first.
func startServer(bin string) (*server, error) {
	// Default flags but for the preset and listeners on free loopback ports;
	// -metrics-addr only adds the /metrics listener.
	cmd := exec.Command(bin, "-preset", "smoke", "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start roaserve: %w", err)
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr = append(s.stderr, line)
			if a, ok := addrAfter(line, "metrics on http://"); ok {
				s.metricsAddr = strings.TrimSuffix(a, "/metrics")
			}
			if a, ok := addrAfter(line, "serving on http://"); ok && !announced {
				s.addr, announced = a, true
				ready <- nil
			}
			s.mu.Unlock()
		}
		if !announced {
			ready <- errors.New("roaserve exited before serving")
		}
		_ = cmd.Wait() // the exit status is read from ProcessState by stop
		close(s.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("%w: %s", err, s.log())
		}
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("roaserve did not announce its address within 30s: %s", s.log())
	}
	if s.metricsAddr == "" {
		s.stop()
		return nil, fmt.Errorf("roaserve did not announce its metrics address: %s", s.log())
	}
	return s, nil
}

func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	return strings.Fields(line[i+len(marker):] + " ")[0], true
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.stderr, " | ")
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain overruns. It reports an unclean exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("roaserve did not drain within 20s; killed")
	}
	if st := s.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("roaserve exited %v: %s", st, s.log())
	}
	return nil
}

// scrape reads the server's /metrics snapshot.
func (s *server) scrape(c *http.Client) (map[string]json.RawMessage, error) {
	resp, err := c.Get("http://" + s.metricsAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return out, nil
}

// solverCounts are the sparse-solver totals in a /metrics snapshot.
type solverCounts struct {
	solves, nonconverged, iterations float64
}

func solverTotals(m map[string]json.RawMessage) solverCounts {
	var c solverCounts
	_ = json.Unmarshal(m["sparse.solve.total"], &c.solves) // absent reads as zero
	_ = json.Unmarshal(m["sparse.solve.nonconverged_total"], &c.nonconverged)
	var h struct {
		Sum float64 `json:"sum"`
	}
	_ = json.Unmarshal(m["sparse.solve.iterations"], &h)
	c.iterations = h.Sum
	return c
}

func (c solverCounts) minus(o solverCounts) solverCounts {
	return solverCounts{c.solves - o.solves, c.nonconverged - o.nonconverged, c.iterations - o.iterations}
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// exchange is the outcome of one HTTP request.
type exchange struct {
	class string // "ok", "4xx", "5xx", "transport", "decode"
	sent  time.Time
	done  time.Time
	raw   []byte
	resp  wireResponse
	err   error
}

// post sends one JSON body and decodes a 200 answer.
func post(c *http.Client, url string, body []byte) exchange {
	x := exchange{sent: time.Now()}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		x.done, x.class, x.err = time.Now(), "transport", err
		return x
	}
	x.raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.done = time.Now()
	switch {
	case err != nil:
		x.class, x.err = "transport", err
	case resp.StatusCode >= 500:
		x.class, x.err = "5xx", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(x.raw))
	case resp.StatusCode != http.StatusOK:
		x.class, x.err = "4xx", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(x.raw))
	default:
		if err := json.Unmarshal(x.raw, &x.resp); err != nil {
			x.class, x.err = "decode", err
		} else {
			x.class = "ok"
		}
	}
	return x
}

// serverCPU is a CPU-time reading of the server taken with the wall clock.
type serverCPU struct {
	cpu  time.Duration
	wall time.Time
}

func (s *server) cpu() (serverCPU, error) {
	c, err := procCPU(s.pid)
	return serverCPU{c, time.Now()}, err
}

// bootServer starts roaserve and posts warm-up bodies until the first 200.
// It returns the server and the set-up time: from exec until that answer.
func bootServer(bin string, c *http.Client, path string, warm []byte) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	for try := 0; ; try++ {
		x := post(c, "http://"+s.addr+path, warm)
		if x.class == "ok" {
			return s, time.Since(t0), nil
		}
		if try == 20 {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up request never answered 200: %v", x.err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
