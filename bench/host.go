package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The calibration loop is a fixed amount of allocator and memory work:
// 8 KB pages allocated, copied into and kept for a while, each with a
// handful of small objects, right after a forced collection. On this
// shared host identical runs of the benchmark swing by 15-40 % in wall
// time in phases that last seconds to minutes, and the engine is
// allocation-bound (≈1.5 GB/s on the TPC-H workloads): a loop of pure
// arithmetic does not feel those phases (its own time moved 1.5 % while
// the workload moved 30 %), an allocating loop does. A chunk of work
// timed right next to it swings the same way, so dividing one by the
// other cancels most of the host's phase. It calls nothing of the
// engine's, so an engine change cannot move it.
const (
	calibPages = 3000
	calibSmall = 20
	// calibRefMs is the loop's duration on the reference box (2 cores,
	// go1.24) in a quiet phase: calibrated times read as true wall-clock
	// there.
	calibRefMs = 6.5
)

var (
	calibSrc    = make([]byte, 8192)
	calibPage   = make([][]byte, 256)
	calibSmalls = make([]*[6]uint64, 4096)
)

// calibOnce times one pass of the calibration work, in milliseconds.
func calibOnce() float64 {
	start := time.Now()
	for i := 0; i < calibPages; i++ {
		p := make([]byte, len(calibSrc))
		copy(p, calibSrc)
		calibPage[i%len(calibPage)] = p
		for k := 0; k < calibSmall; k++ {
			s := new([6]uint64)
			s[0] = uint64(i)
			calibSmalls[(i*calibSmall+k)%len(calibSmalls)] = s
		}
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// calibLoop forces a collection, so that none starts inside the loop and
// the work that follows begins from a clean heap, and returns the median
// of three passes.
func calibLoop() float64 {
	runtime.GC()
	a, b, c := calibOnce(), calibOnce(), calibOnce()
	return median([]float64{a, b, c})
}

// calibrate converts a wall-clock duration into reference-box
// milliseconds given the calibration loop timed right before and right
// after it: wall × calibRefMs ÷ mean(before, after).
func calibrate(wall time.Duration, beforeMs, afterMs float64) float64 {
	mean := (beforeMs + afterMs) / 2
	if mean <= 0 {
		return 0
	}
	return float64(wall) / float64(time.Millisecond) * calibRefMs / mean
}

// segmentEvery is how long a stretch of work may run between two
// calibration loops. The host's phases last seconds, so a calibration
// more than a few hundred milliseconds away says little about the work.
const segmentEvery = 400 * time.Millisecond

// meter measures the host cost of work in segments, each bracketed by
// calibration loops; neighbouring segments share the loop between them.
// What the loops themselves cost (time, allocations, the collection each
// starts with) is left out of every figure.
type meter struct {
	prev   float64   // the calibration that closed the previous segment, ms
	start  hostSnap  // where the open segment began
	calMs  float64   // calibrated milliseconds of the segments closed since reset
	cost   hostCost  // raw cost of every segment
	calibs []float64 // every calibration loop timed, ms
}

// open starts a segment, timing a calibration first if none precedes it.
func (m *meter) open() {
	if m.prev == 0 {
		m.prev = calibLoop()
		m.calibs = append(m.calibs, m.prev)
	}
	m.start = snapHost()
}

// close ends the open segment with a calibration.
func (m *meter) close() {
	end := snapHost()
	after := calibLoop()
	m.calibs = append(m.calibs, after)
	m.calMs += calibrate(end.at.Sub(m.start.at), m.prev, after)
	m.cost.add(m.start, end)
	m.prev = after
}

// split closes the open segment and opens the next once it has run for
// segmentEvery. Call it between ops, never inside one.
func (m *meter) split() {
	if time.Since(m.start.at) >= segmentEvery {
		m.close()
		m.open()
	}
}

// take returns the calibrated milliseconds accumulated since the last
// take.
func (m *meter) take() float64 {
	ms := m.calMs
	m.calMs = 0
	return ms
}

// median returns the median of vs (0 for none). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean drops the lowest and the highest fifth of vs (rounded
// down, so fewer than five values are all kept) and averages the rest: a
// chunk that met a host spike, or a lucky one, does not move it, and
// unlike a median it still averages over most of the chunks, which
// matters when there are only four of them and each has its own query
// parameters.
func trimmedMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := len(s) / 5
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// spreadPct is the distance between the first and third quartile of vs
// as a share of their median, in percent.
func spreadPct(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 4 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return 100 * (q(0.75) - q(0.25)) / m
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99, 95, 90, 85, 80, 75, 50}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The small term keeps p × n ÷ 100 from rounding up past an exact
	// integer (85 % of 20 is 17, not 18).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten samples beyond it: a tail estimated from fewer is one
// slow op away from a different number.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailMean is the mean of the sorted samples beyond percentile p: the
// expected shortfall. A single high percentile of a distribution with
// plateaus and cliffs (a checkpoint stall is 20 times a plain commit) is
// perfectly steady inside a plateau and jumps at its edge; the mean of
// everything beyond it moves smoothly and still has at least ten samples
// under it.
func tailMean(sorted []time.Duration, p float64) time.Duration {
	beyond := sorted[rank(p, len(sorted)):]
	if len(beyond) == 0 {
		return percentile(sorted, p)
	}
	var sum time.Duration
	for _, d := range beyond {
		sum += d
	}
	return sum / time.Duration(len(beyond))
}

// midmean is the mean of the middle half of sorted samples (the
// interquartile mean). Half of the OLTP ops take exactly the same
// simulated time, so their plain median sits on a plateau and reads the
// same whatever changes around it; the midmean is as robust against the
// tails and moves when the middle of the distribution does.
func midmean(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo, hi := n/4, n-n/4
	var sum time.Duration
	for _, d := range sorted[lo:hi] {
		sum += d
	}
	return sum / time.Duration(hi-lo)
}

// latencyTable is the distribution printed beside the gated latencies.
func latencyTable(sorted []time.Duration) map[string]float64 {
	if len(sorted) == 0 {
		return nil
	}
	t := map[string]float64{"min": ms(sorted[0]), "max": ms(sorted[len(sorted)-1]), "midmean": ms(midmean(sorted))}
	t["tail_mean"] = ms(tailMean(sorted, tailPercentile(len(sorted))))
	for _, p := range []float64{25, 50, 75, 90, 95, 98, 99, 99.5, 99.9} {
		t[fmt.Sprintf("p%g", p)] = ms(percentile(sorted, p))
	}
	return t
}

// hostSnap is the process-level cost read at a phase boundary.
type hostSnap struct {
	at     time.Time
	mem    runtime.MemStats
	cpuSec float64
}

func snapHost() hostSnap {
	var s hostSnap
	s.at = time.Now()
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuSec = tvSec(ru.Utime) + tvSec(ru.Stime)
	}
	return s
}

// hostCost is what the process paid over the chunks of a phase; the
// calibration loops between the chunks are left out.
type hostCost struct {
	wallS, cpuS         float64
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
}

// add accounts the stretch from a to b.
func (c *hostCost) add(a, b hostSnap) {
	c.wallS += b.at.Sub(a.at).Seconds()
	c.cpuS += b.cpuSec - a.cpuSec
	c.mallocs += b.mem.Mallocs - a.mem.Mallocs
	c.allocBytes += b.mem.TotalAlloc - a.mem.TotalAlloc
	c.gcCycles += b.mem.NumGC - a.mem.NumGC
	c.gcPauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// liveHeapMB forces a collection and reports what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
