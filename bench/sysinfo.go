package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted.
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
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is a sample reduced to what the result file keeps.
type summary struct {
	Value float64 // the median
	Q1    float64
	Q3    float64
	N     int
}

func summarize(xs []float64) summary {
	return summary{Value: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procField reads one "Key: value" integer field of a /proc/self file.
// A missing file or field reads as 0: the metric is then reported as 0
// rather than failing a run on a platform without /proc.
func procField(file, key string) int64 {
	raw, err := os.ReadFile("/proc/self/" + file)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(f[0], 10, 64)
		return v
	}
	return 0
}

// peakRSSBytes is VmHWM, the process's resident-set high-water mark.
func peakRSSBytes() int64 { return procField("status", "VmHWM") * 1024 }

// resetPeakRSS restarts VmHWM from the current resident set (Linux's
// clear_refs "5").  Where the kernel refuses, the peak simply keeps
// counting from process start.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// ioSyscalls is the number of read- and write-family syscalls so far.
func ioSyscalls() int64 { return procField("io", "syscr") + procField("io", "syscw") }

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// counters is a snapshot of the process-wide meters a phase is measured
// between.
type counters struct {
	wall     time.Time
	cpu      float64
	gcCPU    float64
	alloc    uint64
	gcCycles uint32
	syscalls int64
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		wall: time.Now(), cpu: cpuSeconds(), gcCPU: gcCPUSeconds(),
		alloc: ms.TotalAlloc, gcCycles: ms.NumGC, syscalls: ioSyscalls(),
	}
}

// envBlock records where a result was measured, so two result files from
// different boxes are not compared as if they were one.
type envBlock struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Kernel     string  `json:"kernel"`
	ScratchFS  string  `json:"scratchFS"`
	LoadAvg1   float64 `json:"loadAvg1"`
}

func readEnv(scratch string) envBlock {
	e := envBlock{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.ScratchFS = fsType(scratch)
	return e
}

// fsType names the filesystem holding dir: the mount-table entry with the
// longest mount point that prefixes it.
func fsType(dir string) string {
	abs := dir
	if !strings.HasPrefix(abs, "/") {
		if wd, err := os.Getwd(); err == nil {
			abs = wd + "/" + dir
		}
	}
	best, bestLen := "", -1
	if raw, err := os.ReadFile("/proc/self/mounts"); err == nil {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			f := strings.Fields(string(line))
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
				best, bestLen = f[2], len(mp)
			}
		}
	}
	if best == "" {
		return "unknown"
	}
	return best
}
