package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Go runtime metrics read at the edges of a measured window. The CPU classes
// are the runtime's own estimates (refreshed at each GC), which is what the
// GC share is defined over; process CPU comes from getrusage.
const (
	mHeapAllocs = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mCPUGC      = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal   = "/cpu/classes/total:cpu-seconds"
	mCPUIdle    = "/cpu/classes/idle:cpu-seconds"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
)

// snapshot is the process state at one edge of a window.
type snapshot struct {
	wall    time.Time
	procCPU time.Duration
	allocs  uint64
	cycles  uint64
	cpuGC   float64
	cpuTot  float64
	cpuIdle float64
	pauses  *metrics.Float64Histogram
}

func takeSnapshot() snapshot {
	samples := []metrics.Sample{
		{Name: mHeapAllocs}, {Name: mGCCycles}, {Name: mCPUGC},
		{Name: mCPUTotal}, {Name: mCPUIdle}, {Name: mGCPauses},
	}
	metrics.Read(samples)
	s := snapshot{wall: time.Now(), procCPU: processCPU()}
	for _, m := range samples {
		switch m.Name {
		case mHeapAllocs:
			s.allocs = m.Value.Uint64()
		case mGCCycles:
			s.cycles = m.Value.Uint64()
		case mCPUGC:
			s.cpuGC = m.Value.Float64()
		case mCPUTotal:
			s.cpuTot = m.Value.Float64()
		case mCPUIdle:
			s.cpuIdle = m.Value.Float64()
		case mGCPauses:
			s.pauses = m.Value.Float64Histogram()
		}
	}
	return s
}

// windowDelta is what happened between two snapshots.
type windowDelta struct {
	Wall     time.Duration
	ProcCPU  time.Duration
	Allocs   uint64
	GCCycles uint64
	GCFrac   float64
	// PauseP99 is the 99th percentile of the GC pauses in the window
	// (bucket upper bound), 0 when there were none.
	PauseP99 time.Duration
	Pauses   uint64
}

func delta(a, b snapshot) windowDelta {
	d := windowDelta{
		Wall:     b.wall.Sub(a.wall),
		ProcCPU:  b.procCPU - a.procCPU,
		Allocs:   b.allocs - a.allocs,
		GCCycles: b.cycles - a.cycles,
	}
	if busy := (b.cpuTot - a.cpuTot) - (b.cpuIdle - a.cpuIdle); busy > 0 {
		d.GCFrac = (b.cpuGC - a.cpuGC) / busy
	}
	d.PauseP99, d.Pauses = histDeltaQuantile(a.pauses, b.pauses, 0.99)
	return d
}

// histDeltaQuantile returns quantile q of the observations b adds to a,
// reported as the upper bound of the bucket it falls in, with their count.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) (time.Duration, uint64) {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0, 0
	}
	counts := make([]uint64, len(b.Counts))
	var n uint64
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		n += counts[i]
	}
	if n == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second)), n
		}
	}
	return 0, n
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's high-water mark of the process's resident
// set (VmHWM) so the measured window, not set-up, sets the peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reads VmHWM from /proc/self/status.
func peakRSSBytes() (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (sorts xs in place); 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
