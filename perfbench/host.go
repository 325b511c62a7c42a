package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// host is the shape of the machine a result was measured on. Wall-clock
// figures are only comparable between results with the same host shape.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	L3         string `json:"l3"`
}

func probeHost() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		L3:         l3Size(),
	}
}

func (h host) String() string {
	return fmt.Sprintf("host gomaxprocs=%d num_cpu=%d go=%s arch=%s cpu=%q l3=%q",
		h.GOMAXPROCS, h.NumCPU, h.GoVersion, h.GOARCH, h.CPUModel, h.L3)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// l3Size reads the size of cpu0's level-3 cache from sysfs.
func l3Size() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		level, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(level)) != "3" {
			continue
		}
		if size, err := os.ReadFile(filepath.Join(d, "size")); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's peak resident set size (VmHWM), or 0
// where /proc is not available.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the host-wide steal and total CPU ticks from /proc/stat:
// time the hypervisor gave this machine's CPUs to someone else inflates
// every wall-clock figure measured meanwhile.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal; guest time
	// follows and is already counted in user and nice.
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		var v float64
		fmt.Sscanf(f, "%g", &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1); xs
// is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// stopwatch times fn.
func stopwatch(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
