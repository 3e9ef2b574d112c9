// Command perfbench is the repository benchmark: three workloads that drive
// ROArray only through its public surfaces — the internal/core library API
// and the shipped roaserve binary over loopback HTTP — and print every
// end-to-end metric (or, with -trace 1, every per-layer metric) as one JSON
// line. See README.md in this directory for the workloads, the metrics and
// how to run it; run.sh builds the binaries from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// opts are one run's settings.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	roaserve string // path of the roaserve binary
	outDir   string // where span traces are written
	// tailQ is the workload's fixed tail percentile: the highest of
	// p90/p95/p99 with at least ten samples beyond it at the workload's
	// usual op count.
	tailQ float64
}

// workloads maps each workload name to its runner and tail percentile.
var workloads = map[string]struct {
	run   func(opts) (*result, error)
	tailQ float64
}{
	"localize-lib": {runLib, 0.90},
	"serve-open":   {runServeOpen, 0.99},
	"track-walk":   {runTrackWalk, 0.99},
}

// spec is a metric of BENCHMARK.json with its unit.
type spec struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its order:
// a run prints exactly one of the two sets in its result line. Any other
// figure a workload measures (latency_tail_ms, the tracking ratios) is
// printed in the report above that line.
var endToEnd = []spec{
	{"latency_p50_ms", "ms"}, {"throughput_per_s", "1/s"}, {"cpu_ms_per_op", "ms"},
	{"success_rate", "ratio"}, {"slo_attain", "ratio"}, {"loc_err_p50_m", "m"},
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

var perLayer = []spec{
	{"sparse.iterations_per_solve", "count"}, {"sparse.nonconverged_frac", "ratio"}, {"sparse.solves_per_op", "count"},
	{"core.sanitize.ms_p50", "ms"}, {"core.align.ms_p50", "ms"}, {"core.estimate.ms_p50", "ms"}, {"core.peak.ms_p50", "ms"},
	{"core.grid.ms_p50", "ms"}, {"core.grid.cells_p50", "count"}, {"core.dict.build_ms", "ms"},
	{"serve.server_ms_p50", "ms"}, {"serve.queue_ms_p50", "ms"}, {"serve.batch_size_mean", "count"}, {"serve.wire_ms_p50", "ms"},
	{"serve.decode_ms_p50", "ms"}, {"serve.encode_ms_p50", "ms"}, {"proc.cpu_util", "ratio"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: localize-lib, serve-open or track-walk")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	roaserve := fs.String("roaserve", filepath.Join(".bench_build", "bin", "roaserve"), "roaserve binary built from the code under test")
	outDir := fs.String("out", ".bench_build", "directory for span traces (JSONL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	o := opts{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, roaserve: *roaserve, outDir: *outDir, tailQ: w.tailQ}

	calBefore := calibrate(60)
	res, err := w.run(o)
	if err != nil {
		return err
	}
	calAfter := calibrate(60)
	res.env = append(res.env, fmt.Sprintf("calibration kernel %.3f ms before, %.3f ms after (frozen; not a metric)", calBefore, calAfter))

	if res.rec != nil {
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := res.rec.writeJSONL(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		res.note("spans written to %s", path)
	}
	res.print(stdout)
	if len(res.violations) > 0 {
		return fmt.Errorf("%d correctness violations (first: %s)", len(res.violations), res.violations[0])
	}
	return nil
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// phase counts the ops of one phase (warm-up or measured) by outcome
// class: "ok", "error" or "invalid" on the library, HTTP status classes
// and "transport"/"decode"/"invalid" over HTTP.
type phase struct {
	name    string
	sent    int
	byClass map[string]int
}

func (p *phase) count(class string) { p.byClass[class]++ }
func (p *phase) ok() int            { return p.byClass["ok"] }

// result is everything one run measured.
type result struct {
	o          opts
	attempted  int
	failed     int
	metrics    map[string]metric
	phases     []*phase
	env        []string
	notes      []string
	violations []string
	rec        *recorder
}

func newResult(o opts) *result {
	return &result{o: o, metrics: map[string]metric{}, env: []string{
		fmt.Sprintf("GOMAXPROCS %d, nproc %d, cpu %q, %s", runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version()),
	}}
}

func (r *result) phase(name string) *phase {
	p := &phase{name: name, byClass: map[string]int{}}
	r.phases = append(r.phases, p)
	return p
}

// set records a metric measured over n samples.
func (r *result) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.violate(fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metric{v, unit, n}
}

// tail records latency_tail_ms at the workload's fixed percentile and notes
// when fewer than ten samples lie beyond it.
func (r *result) tail(lat sample, q float64) {
	beyond := lat.beyond(q)
	r.set("latency_tail_ms", lat.quantile(q), "ms", len(lat))
	r.note("latency_tail_ms is p%.0f: %d samples beyond it", 100*q, beyond)
	r.note("latency mean %.4f ms", lat.mean())
	if beyond < 10 {
		r.note("WARNING: fewer than 10 samples beyond p%.0f; the tail figure is thin", 100*q)
	}
}

// outcome records the attempted and failed op counts and the success and
// error rates. error_rate is report-only: the gate needs metrics that are
// never 0, so it uses success_rate.
func (r *result) outcome(sent, ok int) {
	r.attempted, r.failed = sent, sent-ok
	r.set("success_rate", float64(ok)/float64(max(sent, 1)), "ratio", sent)
	r.set("error_rate", float64(sent-ok)/float64(max(sent, 1)), "ratio", sent)
}

func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func (r *result) violate(msg string) { r.violations = append(r.violations, msg) }

// print writes the human-readable report, then the result JSON as the last
// line.
func (r *result) print(w io.Writer) {
	names := endToEnd
	kind := "end-to-end"
	if r.o.trace {
		names, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%.0f trace=%v\n", r.o.workload, r.o.seed, r.o.seconds.Seconds(), r.o.trace)
	for _, e := range r.env {
		fmt.Fprintf(w, "# env: %s\n", e)
	}
	for _, p := range r.phases {
		classes := make([]string, 0, len(p.byClass))
		for c, n := range p.byClass {
			classes = append(classes, fmt.Sprintf("%s=%d", c, n))
		}
		sort.Strings(classes)
		fmt.Fprintf(w, "# phase %-8s sent=%d %s\n", p.name, p.sent, strings.Join(classes, " "))
	}
	fmt.Fprintf(w, "# %s metrics\n", kind)
	out := map[string]map[string]any{}
	listed := map[string]bool{}
	for _, sp := range names {
		m, ok := r.metrics[sp.name]
		shown := fmt.Sprintf("%14.6g", m.value)
		if !ok {
			// The workload does not produce this layer: 0 in the JSON.
			m = metric{unit: sp.unit}
			shown = fmt.Sprintf("%14s", "n/a")
		}
		if m.unit != sp.unit {
			r.violate(fmt.Sprintf("metric %s measured in %s, BENCHMARK.json says %s", sp.name, m.unit, sp.unit))
		}
		fmt.Fprintf(w, "#   %-28s %s %-6s n=%d\n", sp.name, shown, sp.unit, m.n)
		out[sp.name] = map[string]any{"value": m.value, "unit": sp.unit}
		listed[sp.name] = true
	}
	var others []string
	for name := range r.metrics {
		if !listed[name] {
			others = append(others, name)
		}
	}
	sort.Strings(others)
	if len(others) > 0 {
		fmt.Fprintf(w, "# other figures (not in BENCHMARK.json)\n")
	}
	for _, name := range others {
		m := r.metrics[name]
		fmt.Fprintf(w, "#   %-28s %14.6g %-6s n=%d\n", name, m.value, m.unit, m.n)
	}
	if r.rec != nil {
		printLayerTable(w, r.o.workload, r.rec.selfTimes())
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "# VIOLATION: %s\n", v)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   len(r.violations) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}
