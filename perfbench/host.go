package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Host interference. The benchmark shares its virtual machine with other
// tenants: the hypervisor steals CPU time from it and other processes run
// beside it, in bursts of a fraction of a second to a few seconds. A
// closed-loop workload saturates both cores, so its throughput and latency
// follow that interference more than they follow the code. The sampler
// below cuts each window into slices and records, per slice, how much CPU
// the rest of the host took; closed-loop workloads report over the quieter
// half of their slices.

// sliceLen is the length of one interference slice.
const sliceLen = 250 * time.Millisecond

// ticksPerSecond is the kernel's USER_HZ, the unit of /proc/stat.
const ticksPerSecond = 100

// hostSample is one reading of the host's and the process's CPU counters.
type hostSample struct {
	at        time.Time
	self      time.Duration // this process, user + system
	busy      time.Duration // every process on the host, user + system + interrupts
	steal     time.Duration // taken by the hypervisor
	available bool          // /proc/stat could be read
}

func readHost() hostSample {
	s := hostSample{at: time.Now(), self: readProc().cpu}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return s
	}
	tick := func(i int) time.Duration {
		n, _ := strconv.ParseInt(f[i], 10, 64) // a malformed field reads as zero
		return time.Duration(n) * time.Second / ticksPerSecond
	}
	// user nice system idle iowait irq softirq steal
	s.busy = tick(1) + tick(2) + tick(3) + tick(6) + tick(7)
	s.steal = tick(8)
	s.available = true
	return s
}

// hostSlice is one slice of a window, in offsets from the window start.
type hostSlice struct {
	from, to     time.Duration
	self         time.Duration // CPU this process used
	interference time.Duration // CPU the rest of the host took: steal plus other processes
}

// hostSlices turns consecutive samples into slices, as offsets from begin.
func hostSlices(samples []hostSample, begin time.Time) []hostSlice {
	var out []hostSlice
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		sl := hostSlice{from: a.at.Sub(begin), to: b.at.Sub(begin), self: b.self - a.self}
		if a.available && b.available {
			other := (b.busy - a.busy) - sl.self
			sl.interference = max(other, 0) + (b.steal - a.steal)
		}
		out = append(out, sl)
	}
	return out
}

// inWindow keeps the slices that lie inside [0, window].
func inWindow(slices []hostSlice, window time.Duration) []hostSlice {
	var in []hostSlice
	for _, s := range slices {
		if s.from >= 0 && s.to <= window {
			in = append(in, s)
		}
	}
	return in
}

// quietHalf returns the half (rounded up) of the slices with the least
// interference.
func quietHalf(slices []hostSlice) []hostSlice {
	in := append([]hostSlice(nil), slices...)
	sort.SliceStable(in, func(i, j int) bool { return in[i].interference < in[j].interference })
	return in[:(len(in)+1)/2]
}
