package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side.
// Spans of one op share Op; Parent is 0 for the op's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder's origin.
	Start int64 `json:"startNs"`
	End   int64 `json:"endNs"`
}

// recorder keeps spans in memory for the length of a traced run; they are
// written out and summarized only when the run ends.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

// newRecorder returns an empty recorder timing spans from origin.
func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// open starts a span and returns its id; close it with done.
func (r *recorder) open(name string, op, parent int64) int64 {
	start := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start})
	return id
}

// done closes the span with the given id.
func (r *recorder) done(id int64) {
	end := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// add records an already-timed span (for intervals measured elsewhere, such
// as an HTTP round trip timed by the load generator).
func (r *recorder) add(name string, op, parent int64, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
	return id
}

// durations returns the durations in milliseconds of every span named name.
func (r *recorder) durations(name string) sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out sample
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name   string
	count  int
	selfMs float64
	share  float64
}

// selfTimes computes, per span name, the count and total self time: a
// span's duration minus the part of it its children cover. Children that
// ran in parallel are merged as intervals, so overlap is not subtracted
// twice. share is self time over the summed duration of the root spans;
// with links estimated in parallel the shares of one op can add up to
// more than 1 (work done on several CPUs at once).
func (r *recorder) selfTimes() []layerRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int64][][2]int64)
	var rootTotal float64
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		} else {
			rootTotal += float64(s.End - s.Start)
		}
	}
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range r.spans {
		row := rows[s.Name]
		if row == nil {
			row = &layerRow{name: s.Name}
			rows[s.Name] = row
			order = append(order, s.Name)
		}
		row.count++
		row.selfMs += float64(s.End-s.Start-covered(kids[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]layerRow, 0, len(order))
	for _, name := range order {
		row := *rows[name]
		if rootTotal > 0 {
			row.share = row.selfMs * 1e6 / rootTotal
		}
		out = append(out, row)
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	flush := func(a, b int64) {
		if a, b = max(a, lo), min(b, hi); b > a {
			total += b - a
		}
	}
	curLo, curHi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > curHi {
			flush(curLo, curHi)
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	flush(curLo, curHi)
	return total
}

// printLayerTable prints each layer's self time, share of the op and count.
func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "# layer self time, %s (share = self time / op wall time; parallel links can push the sum above 100%%)\n", workload)
	fmt.Fprintf(w, "#   %-22s %8s %12s %8s\n", "layer", "count", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-22s %8d %12.3f %7.2f%%\n", r.name, r.count, r.selfMs, 100*r.share)
	}
}
