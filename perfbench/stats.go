package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is a growable list of observations of one quantity.
type sample []float64

// quantile returns the nearest-rank q-quantile (q in [0,1]); 0 when empty.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	k := int(math.Ceil(q*float64(len(v)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(v) {
		k = len(v) - 1
	}
	return v[k]
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// beyond counts the observations strictly above the q-quantile: the samples
// a tail percentile rests on.
func (s sample) beyond(q float64) int {
	cut := s.quantile(q)
	n := 0
	for _, v := range s {
		if v > cut {
			n++
		}
	}
	return n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rusageCPU returns this process's user+system CPU time.
func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat (clock-tick resolution).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, os.ErrInvalid
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, os.ErrInvalid
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSSMB returns VmHWM (peak resident set) of process pid ("self" for
// this process) in MiB.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// calibrate times a frozen kernel — a dense complex128 matrix-vector loop
// shaped like one ADMM matvec at the library working point (90 x 920) —
// and returns the median of reps timings in milliseconds. It never changes
// with the code under test, so a shift in it between runs is machine-speed
// drift rather than a code change. Keep this function byte-stable.
func calibrate(reps int) float64 {
	const rows, cols, passes = 90, 920, 40
	a := make([]complex128, rows*cols)
	x := make([]complex128, cols)
	y := make([]complex128, rows)
	for i := range a {
		a[i] = complex(float64(i%13)-6, float64(i%7)-3)
	}
	for j := range x {
		x[j] = complex(1/float64(j+1), float64(j%5))
	}
	var times sample
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for i := 0; i < rows; i++ {
				var acc complex128
				row := a[i*cols : (i+1)*cols]
				for j, v := range row {
					acc += v * x[j]
				}
				y[i] = acc
			}
			x[p%cols] += y[p%rows] * 1e-12
		}
		times = append(times, ms(time.Since(t0)))
	}
	return times.median()
}
