package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far, GC and every
// worker goroutine included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects the heap and returns freed memory to the OS, so every
// measured set-up or run starts from the same memory state.
func settle() { debug.FreeOSMemory() }

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB); printed for reference beside the gated heap metric.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSampleEvery is the memory sampler's period.
const memSampleEvery = 2 * time.Millisecond

// memSampler samples the live heap — what the last GC cycle found
// reachable — while one run executes. Its 90th percentile moves when the
// program retains more memory. Resident memory and the single largest
// live-heap reading also move with GC pacing and with which two matrix
// cells happen to overlap (a 30 MB matrix process peaks at 28 or 45 MB
// from run to run of identical work), so neither is gated.
type memSampler struct {
	stop, done chan struct{}
	samples    []float64 // MiB
}

const liveHeapMetric = "/gc/heap/live:bytes"

func (m *memSampler) sample(s []metrics.Sample) {
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 { // absent before Go 1.21
		m.samples = append(m.samples, float64(s[0].Value.Uint64())/(1<<20))
	}
}

// startMemSampler starts sampling; Stop ends it.
func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: liveHeapMetric}}
	m.sample(s)
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.sample(s)
				return
			case <-tick.C:
				m.sample(s)
			}
		}
	}()
	return m
}

// Stop ends sampling, waits for the sampler to exit, and returns the 90th
// percentile of the live heap in MiB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	<-m.done
	return percentile(sorted(m.samples), 90).Value
}

// gcSnap is a runtime/metrics reading of the allocator and collector.
type gcSnap struct {
	AllocBytes   uint64
	AllocObjects uint64
	Cycles       uint64
	CPUSeconds   float64
}

var gcSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGC() gcSnap {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var g gcSnap
	g.AllocBytes, g.AllocObjects, g.Cycles = u(0), u(1), u(2)
	if s[3].Value.Kind() == metrics.KindFloat64 {
		g.CPUSeconds = s[3].Value.Float64()
	}
	return g
}

// sub is the GC activity between two readings.
func (g gcSnap) sub(o gcSnap) gcSnap {
	return gcSnap{
		AllocBytes:   g.AllocBytes - o.AllocBytes,
		AllocObjects: g.AllocObjects - o.AllocObjects,
		Cycles:       g.Cycles - o.Cycles,
		CPUSeconds:   g.CPUSeconds - o.CPUSeconds,
	}
}

// runContext is what every result records about the toolchain and host, so
// a number can be traced to the build and machine that produced it.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func newRunContext(root, workload string, seed int64, trace bool) runContext {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return runContext{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Commit:     commitHash(root),
	}
}

func (c runContext) String() string {
	return fmt.Sprintf("context workload=%s seed=%d trace=%v go=%s os=%s/%s nproc=%d gomaxprocs=%d gogc=%q commit=%s",
		c.Workload, c.Seed, c.Trace, c.GoVersion, c.GOOS, c.GOARCH, c.NumCPU, c.GOMAXPROCS, c.GOGC, c.Commit)
}

// commitHash reads the checked-out commit from root/.git without running
// git. Exported source trees carry no .git and report "unknown".
func commitHash(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// artifactHashes fingerprints the committed BENCH_*.json files at root; the
// benchmark must leave them byte-identical (it calls harness functions and
// never runs the tampbench figures that rewrite them).
func artifactHashes(root string) (map[string][32]byte, error) {
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][32]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(p)] = sha256.Sum256(b)
	}
	return out, nil
}

// artifactsChanged lists, sorted, the files whose bytes differ between two
// fingerprints (including files added or removed).
func artifactsChanged(before, after map[string][32]byte) []string {
	var changed []string
	for name, h := range before {
		if a, ok := after[name]; !ok || !bytes.Equal(a[:], h[:]) {
			changed = append(changed, name)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	return changed
}
