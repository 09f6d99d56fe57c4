package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNow returns the process CPU time (user + system, all threads) in
// seconds. Every timed quantity of the measured runs is counted this
// way: on a shared VM the wall clock also counts time the host gave to
// other tenants.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runtimeReader reads Go runtime counters without allocating.
type runtimeReader struct{ s []metrics.Sample }

const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mLive     = "/gc/heap/live:bytes"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal = "/cpu/classes/total:cpu-seconds"
	mCPUIdle  = "/cpu/classes/idle:cpu-seconds"
)

func newRuntimeReader() *runtimeReader {
	names := []string{mAllocs, mLive, mGCCycles, mGCCPU, mCPUTotal, mCPUIdle}
	r := &runtimeReader{s: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.s[i].Name = n
	}
	return r
}

// runtimeStats is one reading of the runtime counters the benchmark uses.
type runtimeStats struct {
	allocBytes uint64
	liveBytes  uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate of CPU seconds spent in GC
	busyCPU    float64 // runtime estimate of non-idle CPU seconds
}

func (r *runtimeReader) read() runtimeStats {
	metrics.Read(r.s)
	return runtimeStats{
		allocBytes: r.s[0].Value.Uint64(),
		liveBytes:  r.s[1].Value.Uint64(),
		gcCycles:   r.s[2].Value.Uint64(),
		gcCPU:      r.s[3].Value.Float64(),
		busyCPU:    r.s[4].Value.Float64() - r.s[5].Value.Float64(),
	}
}

// meter accumulates per-op CPU seconds, heap allocation and GC work.
// Only the intervals between begin and end count, so book-keeping
// between ops (result checks, server restarts between blocks) is not
// charged to the workload.
type meter struct {
	rt    *runtimeReader
	cpu0  float64
	rt0   runtimeStats
	wall0 time.Time

	opCPU []float64
	// kindCPU holds the per-op CPU seconds of each kind of op (a job
	// shape, a rate rung, a prompt).
	kindCPU  map[int][]float64
	ops      int
	sumCPU   float64
	allocSum uint64
	wall     time.Duration
	// gcCycles, gcCPU and busyCPU sum the runtime's own counters.
	gcCycles       uint64
	gcCPU, busyCPU float64
}

func newMeter() *meter { return &meter{rt: newRuntimeReader(), kindCPU: map[int][]float64{}} }

func (m *meter) begin() {
	m.wall0 = time.Now()
	m.rt0 = m.rt.read()
	m.cpu0 = cpuNow()
}

// end closes the interval opened by begin and attributes it to ops
// operations of the given kind: the requests of one replay share the
// replay's CPU.
func (m *meter) end(kind, ops int) {
	c := cpuNow() - m.cpu0
	r := m.rt.read()
	m.wall += time.Since(m.wall0)
	m.allocSum += r.allocBytes - m.rt0.allocBytes
	m.gcCycles += r.gcCycles - m.rt0.gcCycles
	m.gcCPU += r.gcCPU - m.rt0.gcCPU
	m.busyCPU += r.busyCPU - m.rt0.busyCPU
	m.sumCPU += c
	m.ops += ops
	m.opCPU = append(m.opCPU, c/float64(ops))
	m.kindCPU[kind] = append(m.kindCPU[kind], c/float64(ops))
}

// typicalOpCPU is the mean over the kinds of op of each kind's median CPU
// seconds per op. Every block holds the same mix of kinds, so the figure
// does not depend on how many blocks a run fits in, as the median of all
// ops pooled together would: that one falls between two kinds whose costs
// differ.
func (m *meter) typicalOpCPU() float64 {
	if len(m.kindCPU) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range m.kindCPU {
		sum += median(xs)
	}
	return sum / float64(len(m.kindCPU))
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs without modifying it; 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

// hostCPU is one reading of the aggregate "cpu" line of /proc/stat.
type hostCPU struct{ total, steal uint64 }

// readHostCPU returns the host CPU counters, or ok=false where
// /proc/stat is unavailable; the steal share is informational only.
func readHostCPU() (hostCPU, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var h hostCPU
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return hostCPU{}, false
			}
			// guest and guest_nice (fields 9 and 10) are already
			// included in user and nice.
			if i < 8 {
				h.total += v
			}
			if i == 7 {
				h.steal = v
			}
		}
		return h, true
	}
	return hostCPU{}, false
}

// envRecord describes the conditions of one run. It is printed with every
// result and never gated: a starved run is visible when results are
// reviewed, not hidden.
type envRecord struct {
	gomaxprocs, nproc int
	goVersion         string
	seed              uint64
	start             time.Time
	cpu0              float64
	host0             hostCPU
	hostOK            bool
}

func startEnv(seed uint64) *envRecord {
	e := &envRecord{
		gomaxprocs: runtime.GOMAXPROCS(0),
		nproc:      runtime.NumCPU(),
		goVersion:  runtime.Version(),
		seed:       seed,
		start:      time.Now(),
		cpu0:       cpuNow(),
	}
	e.host0, e.hostOK = readHostCPU()
	return e
}

func (e *envRecord) String() string {
	wall := time.Since(e.start).Seconds()
	cpu := cpuNow() - e.cpu0
	steal := "n/a"
	if h1, ok := readHostCPU(); ok && e.hostOK && h1.total > e.host0.total {
		steal = fmt.Sprintf("%.4f", float64(h1.steal-e.host0.steal)/float64(h1.total-e.host0.total))
	}
	ratio := 0.0
	if cpu > 0 {
		ratio = wall / cpu
	}
	return fmt.Sprintf("env gomaxprocs=%d nproc=%d go=%s seed=%d wall_s=%.3f cpu_s=%.3f wall_per_cpu=%.3f host_steal_share=%s",
		e.gomaxprocs, e.nproc, e.goVersion, e.seed, wall, cpu, ratio, steal)
}
