package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a p90 over fewer than 100 samples would rest on fewer than
// ten observations and is not reported.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-quantile of xs by linear interpolation between
// closest ranks. ok is false when fewer than minTail samples lie beyond
// it, so p90 needs at least 100 samples; the median (p <= 0.5) is always
// reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	if p > 0.5 && float64(n)*(1-p) < minTail-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1], true
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), true
}

// quartiles returns Q1, Q2 and Q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so bounds set from this tool match the acceptance check.
// It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, true
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssMB reads the process's current resident set.
func rssMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parsing /proc/self/statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// rssSampler tracks the peak resident set while a round runs, sampling
// every rssEvery.
type rssSampler struct {
	stop, done chan struct{}
	peak       float64
	err        error
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak in MB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	return s.peak, s.err
}

// meter accumulates wall time, CPU time and heap allocation over the
// segments of a round's timed phase; the benchmark's own output checks
// run between segments and are not charged.
type meter struct {
	running bool
	t0      time.Time
	cpu0    float64
	alloc0  uint64

	wall  time.Duration
	cpu   float64
	alloc uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (m *meter) start() {
	if m.running {
		return
	}
	m.running = true
	m.alloc0 = totalAlloc()
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	if !m.running {
		return
	}
	m.wall += time.Since(m.t0)
	m.cpu += cpuSeconds() - m.cpu0
	m.alloc += totalAlloc() - m.alloc0
	m.running = false
}
