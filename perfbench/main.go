// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator through the internal packages' public
// entry points, checks the outputs, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload churn-1k --seed 42 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// runs; with --trace 1 a traced pass reports the per-layer metrics and the
// tracing overhead. README.md documents every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runConfig is what a workload run needs from the invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	out      io.Writer // human-readable report
}

// result is one workload invocation's outcome.
type result struct {
	tally    tally
	metrics  *metricSet
	problems []string
	tracer   *tracer // traced pass only: the spans to write out
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input; BENCHMARK.json says why each
// exists.
type workload struct {
	name     string
	untraced func(runConfig) (*result, error)
	traced   func(runConfig) (*result, error)
}

var workloads = []workload{
	{"churn-1k", func(c runConfig) (*result, error) { return churnUntraced(c, churn1k) },
		func(c runConfig) (*result, error) { return churnTraced(c, churn1k) }},
	{"chaos-matrix", func(c runConfig) (*result, error) { return matrixUntraced(c, chaosMatrix) },
		func(c runConfig) (*result, error) { return matrixTraced(c, chaosMatrix) }},
	{"traffic-matrix", func(c runConfig) (*result, error) { return matrixUntraced(c, trafficMatrix) },
		func(c runConfig) (*result, error) { return matrixTraced(c, trafficMatrix) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json and the BENCH_*.json artifacts)")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds (untraced runs repeat the workload's fixed work while it fits)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := checkSpec(*root); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	before, err := artifactHashes(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		out:      stdout,
	}
	ctx := newRunContext(*root, w.name, *seed, *trace == 1)
	fmt.Fprintln(stdout, ctx)
	fn := w.untraced
	if ctx.Trace {
		fn = w.traced
	}
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	after, err := artifactHashes(*root)
	if err != nil {
		res.problem("re-read BENCH artifacts: %v", err)
	} else if changed := artifactsChanged(before, after); len(changed) > 0 {
		res.problem("committed artifacts changed during the run: %s", strings.Join(changed, ", "))
	}
	if share, err := res.tally.share(); err != nil {
		res.problem("failure share: %v", err)
	} else {
		fmt.Fprintf(stdout, "operations: %d attempted, %d failed (share %.3g)\n", res.tally.Attempted, res.tally.Failed, share)
	}
	values := res.metrics.complete()
	if res.tracer != nil {
		if path, err := res.tracer.write(filepath.Join(*root, ".bench_build", "traces"), ctx, values); err != nil {
			res.problem("%v", err)
		} else {
			fmt.Fprintf(stdout, "trace written to %s\n", path)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: FAIL %s: %s\n", w.name, p)
	}
	line, err := json.Marshal(resultLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.tally.Attempted,
		Failed:    res.tally.Failed,
		Metrics:   values,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}
