package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// seq returns the sorted samples 1..n.
func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailRuleNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		ok   bool
		p    float64
		want float64
	}{
		{n: 19, ok: false},
		{n: 20, ok: true, p: 50, want: 10},
		{n: 99, ok: true, p: 50, want: 50},
		{n: 100, ok: true, p: 90, want: 90},
		{n: 999, ok: true, p: 90, want: 900},
		{n: 1000, ok: true, p: 99, want: 990},
		{n: 4995, ok: true, p: 99, want: 4946}, // churn-1k's convergence sample count
		{n: 10000, ok: true, p: 99.9, want: 9990},
	}
	for _, c := range cases {
		q, ok := tail(seq(c.n))
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			continue
		}
		if q.P != c.p || q.Value != c.want || q.N != c.n {
			t.Errorf("n=%d: got %v, want p%g=%g (n=%d)", c.n, q, c.p, c.want, c.n)
		}
		if beyond := c.n - rank(q.P, c.n); beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, q.P, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(s, c.p); got.Value != c.want || got.N != 10 {
			t.Errorf("p%g = %v, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got.N != 0 || got.Value != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

func TestFailureShareArithmetic(t *testing.T) {
	var tl tally
	if _, err := tl.share(); err == nil {
		t.Fatal("share of nothing attempted must be an error")
	}
	// The switch-outage/hierarchical+adaptive seq-monotone cell at seed 42,
	// plus a clean cell.
	if err := tl.add(78676, 23); err != nil {
		t.Fatal(err)
	}
	if err := tl.add(1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := tl.add(5, 6); err == nil {
		t.Fatal("a cell cannot fail more operations than it attempted")
	}
	if tl.Attempted != 79676 || tl.Failed != 23 {
		t.Fatalf("tally = %+v, the rejected cell must not count", tl)
	}
	share, err := tl.share()
	if err != nil {
		t.Fatal(err)
	}
	if want := 23.0 / 79676; math.Abs(share-want) > 1e-15 {
		t.Errorf("share = %g, want %g", share, want)
	}
	tl.merge(tally{Attempted: 324, Failed: 1})
	if tl.Attempted != 80000 || tl.Failed != 24 {
		t.Errorf("merged tally = %+v", tl)
	}
}

func TestSpecMatchesCatalog(t *testing.T) {
	if err := checkSpec(".."); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestUnknownWorkloadAndMissingSpecExit2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-root", "..", "-workload", "nope"}, &out, &errb); code != 2 {
		t.Errorf("unknown workload exit %d", code)
	}
	if code := run([]string{"-root", t.TempDir(), "-workload", "churn-1k"}, &out, &errb); code != 2 {
		t.Errorf("missing BENCHMARK.json exit %d", code)
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a result: %q", out.String())
	}
}

// smokeConfig runs a reduced workload once.
func smokeConfig() runConfig {
	return runConfig{workload: "smoke", seed: 7, out: io.Discard}
}

var (
	smokeChurn   = churnShape{Groups: 4, PerGroup: 5, Churn: 2}
	smokeChaos   = matrixShape{groups: 3, perGroup: 8, scenarios: []string{"steady", "kill-restart"}}
	smokeTraffic = matrixShape{traffic: true, groups: 3, perGroup: 8, sessions: 100, scenarios: []string{"steady", "kill-restart"}}
)

func checkResult(t *testing.T, res *result, err error, defs []metricDef, nonZero ...string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 {
		t.Fatalf("problems: %s", strings.Join(res.problems, "; "))
	}
	if res.tally.Attempted == 0 {
		t.Fatal("no operations attempted")
	}
	vals := res.metrics.complete()
	if len(vals) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(vals), len(defs))
	}
	for _, name := range nonZero {
		if v := vals[name].Value; v == 0 || math.IsNaN(v) {
			t.Errorf("%s = %g, want a measured non-zero value", name, v)
		}
	}
}

var e2eNames = []string{"wall_s", "setup_s", "heap_live_p90_mb", "bw_bytes_node_s"}

func TestSmokeChurn(t *testing.T) {
	res, err := churnUntraced(smokeConfig(), smokeChurn)
	checkResult(t, res, err, endToEnd, e2eNames...)

	// The untraced construction the end-to-end metrics come from is the
	// harness.ScaleChurn simulation (the traced pass checks the traced run
	// against harness.ScaleChurn at full size).
	r, err := buildChurn(smokeChurn, harness.DeriveSeed(7, smokeChurn.key()), churnAudited, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := detOf(r.run()), detOf(harness.ScaleChurn(smokeChurn.scaleOptions(7))); got != want {
		t.Fatalf("untraced construction %+v differs from harness.ScaleChurn %+v", got, want)
	}

	res, err = churnTraced(smokeConfig(), smokeChurn)
	checkResult(t, res, err, perLayer, "sim.events", "netsim.pkts_delivered", "netsim.multicast_copies",
		"sim.bootstrap_s", "netsim.bootstrap_pkts",
		"wire.decode_s", "wire.decode_ns.heartbeat", "wire.encode_ns.update", "wire.decode_ns.directory",
		"core.receive_s", "core.receive_calls.heartbeat", "core.updates_applied", "core.update_useful_ratio",
		"membership.events.join", "membership.events.update", "membership.lookup_us_p99",
		"membership.converge_p50_ms", "invariant.checks", "parsim.boundaries", "parsim.boundary_s",
		"gc.alloc_bytes", "harness.cell_wall_p50_ms", "host.cpu_s")
	if len(res.tracer.spans) == 0 {
		t.Error("traced pass recorded no spans")
	}
}

func TestSmokeChaosMatrix(t *testing.T) {
	res, err := matrixUntraced(smokeConfig(), smokeChaos)
	checkResult(t, res, err, endToEnd, e2eNames...)

	res, err = matrixTraced(smokeConfig(), smokeChaos)
	checkResult(t, res, err, perLayer, "sim.events", "netsim.bytes_delivered", "invariant.checks",
		"wire.decode_ns.gossip", "wire.encode_allocs.gossip", "wire.decode_ns.update",
		"harness.cell_wall_p90_ms", "harness.scheme_wall_s.rapid-dc", "gc.cycles", "host.cpu_s")
}

func TestSmokeTrafficMatrix(t *testing.T) {
	res, err := matrixUntraced(smokeConfig(), smokeTraffic)
	checkResult(t, res, err, endToEnd, e2eNames...)

	res, err = matrixTraced(smokeConfig(), smokeTraffic)
	checkResult(t, res, err, perLayer, "traffic.sessions", "traffic.requests", "traffic.migrations",
		"traffic.req_p50_ms", "traffic.mig_p99_ms", "wire.decode_ns.service_request",
		"wire.encode_ns.service_reply", "harness.scheme_wall_s.hierarchical-proxy")
}

// TestTallyIsOneRepetition proves the operation counts are those of the
// workload's fixed work, not of how many repetitions the host fits into the
// budget, so two runs at one seed report the same counts on any host.
func TestTallyIsOneRepetition(t *testing.T) {
	once := smokeConfig()
	once.seconds = time.Nanosecond
	res1, err := matrixUntraced(once, smokeChaos)
	if err != nil {
		t.Fatal(err)
	}
	many := smokeConfig()
	many.seconds = 2 * time.Second
	var out bytes.Buffer
	many.out = &out
	resN, err := matrixUntraced(many, smokeChaos)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "run 2:") {
		t.Fatalf("the budget fitted one repetition only:\n%s", out.String())
	}
	if res1.tally != resN.tally {
		t.Errorf("tally %+v over several repetitions, %+v over one", resN.tally, res1.tally)
	}
}

// TestRunLeavesCommittedArtifactsUnchanged runs a reduced workload of each
// kind and proves the repository-root BENCH_*.json files keep their bytes.
func TestRunLeavesCommittedArtifactsUnchanged(t *testing.T) {
	before, err := artifactHashes("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("no BENCH_*.json artifacts found at the repository root")
	}
	cfg := smokeConfig()
	cfg.seconds = time.Nanosecond
	if _, err := churnUntraced(cfg, smokeChurn); err != nil {
		t.Fatal(err)
	}
	if _, err := matrixUntraced(cfg, smokeChaos); err != nil {
		t.Fatal(err)
	}
	if _, err := matrixUntraced(cfg, smokeTraffic); err != nil {
		t.Fatal(err)
	}
	after, err := artifactHashes("..")
	if err != nil {
		t.Fatal(err)
	}
	if changed := artifactsChanged(before, after); len(changed) > 0 {
		t.Fatalf("benchmark run changed %v", changed)
	}
}

func TestArtifactsChangedDetectsEdits(t *testing.T) {
	a := map[string][32]byte{"BENCH_a.json": {1}, "BENCH_b.json": {2}}
	b := map[string][32]byte{"BENCH_a.json": {1}, "BENCH_b.json": {3}, "BENCH_c.json": {4}}
	got := strings.Join(artifactsChanged(a, b), ",")
	if got != "BENCH_b.json,BENCH_c.json" {
		t.Errorf("changed = %s", got)
	}
	if len(artifactsChanged(a, a)) != 0 {
		t.Error("identical fingerprints reported as changed")
	}
}
