package main

// chaos-matrix and traffic-matrix: the committed scenario x scheme
// matrices, run through harness.ChaosMatrix / harness.TrafficMatrix with a
// Sweep.Collector for the per-cell reports and one pool worker.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// matrixWorkers is the matrix pool's size: one simulation goroutine, so
// the Go runtime's background GC has a core of its own on a 2-vCPU host
// instead of competing with a second worker for it.
const matrixWorkers = 1

// matrixShape sizes one matrix workload.
type matrixShape struct {
	traffic   bool // traffic matrix (else chaos matrix)
	groups    int
	perGroup  int
	scenarios []string // nil: the harness default set
	sessions  int      // traffic only
}

var (
	chaosMatrix   = matrixShape{groups: 3, perGroup: 8}
	trafficMatrix = matrixShape{traffic: true, groups: 3, perGroup: 8, sessions: 1000}
)

func (s matrixShape) schemes() []harness.Scheme {
	if s.traffic {
		return harness.TrafficSchemes
	}
	return harness.ChaosSchemes
}

// scenarioList resolves the matrix's scenarios the way the harness does.
func (s matrixShape) scenarioList() ([]*chaos.Scenario, error) {
	names := s.scenarios
	if len(names) == 0 {
		if !s.traffic {
			return chaos.Library(s.groups, s.perGroup), nil
		}
		names = harness.TrafficScenarioNames
	}
	var out []*chaos.Scenario
	for _, n := range names {
		sc, err := chaos.Find(n, s.groups, s.perGroup)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// cellTopology is the topology a cell runs on, chosen as the harness
// chooses it.
func (s matrixShape) cellTopology(scheme harness.Scheme, sc *chaos.Scenario) *topology.Topology {
	if scheme == harness.HierarchicalProxy || sc.MultiDC {
		return topology.MultiDC(sc.NumDCs(), s.groups, s.perGroup)
	}
	return topology.Clustered(s.groups, s.perGroup)
}

// cellCluster builds one cell's cluster as the harness does.
func (s matrixShape) cellCluster(scheme harness.Scheme, sc *chaos.Scenario, seed int64) (*harness.Cluster, *harness.FederatedCluster) {
	if scheme == harness.HierarchicalProxy {
		fo := harness.DefaultFederatedOptions(s.groups, s.perGroup)
		fo.DCs = sc.NumDCs()
		fo.ProxiesPerDC = sc.NumProxies()
		fed := harness.NewFederatedCluster(fo, seed)
		return fed.Cluster, fed
	}
	return harness.NewCluster(scheme, s.cellTopology(scheme, sc), seed), nil
}

func (s matrixShape) cellKey(sc *chaos.Scenario, scheme harness.Scheme) string {
	if s.traffic {
		return fmt.Sprintf("traffic/%s/%s", sc.Name, scheme)
	}
	return fmt.Sprintf("chaos/%s/%s", sc.Name, scheme)
}

// trafficApp is the service the traffic matrix's sessions invoke.
const trafficApp = "app"

// attachApp layers a service runtime registering the traffic app over
// every node of a plain cluster (the harness's per-cell construction).
func attachApp(c *harness.Cluster, partitions int) ([]*service.Runtime, error) {
	rts := make([]*service.Runtime, len(c.Nodes))
	for h, n := range c.Nodes {
		m, ok := n.(service.Member)
		if !ok {
			return nil, fmt.Errorf("%T is not a service member", n)
		}
		rts[h] = service.NewRuntime(service.DefaultConfig(), c.Eng, c.Net.Endpoint(topology.HostID(h)), m)
		if err := rts[h].Register(trafficApp, fmt.Sprintf("%d", h%partitions), time.Millisecond,
			func(p int32, b []byte) ([]byte, error) { return b, nil }); err != nil {
			return nil, err
		}
	}
	return rts, nil
}

// sessionLayer builds the closed-loop session population over rts.
func (s matrixShape) sessionLayer(c *harness.Cluster, rts []*service.Runtime) *traffic.Layer {
	topt := traffic.DefaultOptions()
	topt.Service = trafficApp
	topt.Sessions = s.sessions
	topt.Partitions = harness.DefaultTrafficOptions().Partitions
	return traffic.New(c.Eng, topt, rts, func(id membership.NodeID) bool { return c.Nodes[int(id)].Running() })
}

// matrixPlan is a matrix's set-up: the scenario list the harness resolves
// (the same chaos.Library / chaos.Find calls) and, in the harness's
// scenario-major, scheme-minor order, each cell's pool key and host count,
// which the collected reports are checked against and the bandwidth is
// weighed by. The cells' clusters are built inside the harness and count
// in wall_s.
type matrixPlan struct {
	scenarios []*chaos.Scenario
	cells     []plannedCell
}

type plannedCell struct {
	key    string
	scheme harness.Scheme
	hosts  int
}

func (s matrixShape) plan() (*matrixPlan, error) {
	scs, err := s.scenarioList()
	if err != nil {
		return nil, err
	}
	p := &matrixPlan{scenarios: scs}
	for _, sc := range scs {
		for _, scheme := range s.schemes() {
			p.cells = append(p.cells, plannedCell{s.cellKey(sc, scheme), scheme, s.cellTopology(scheme, sc).NumHosts()})
		}
	}
	return p, nil
}

func chaosNodes(c *harness.Cluster) []chaos.Node {
	out := make([]chaos.Node, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n
	}
	return out
}

// cellOut is the deterministic outcome of one matrix cell.
type cellOut struct {
	Key        string
	Scheme     string
	Hosts      int
	Virtual    time.Duration
	Events     uint64
	Pkts       uint64
	Bytes      uint64
	Dropped    uint64
	Rejected   uint64
	Checks     uint64
	Violations uint64
	Spurious   uint64
	Failing    []string // invariants with violations
	Traffic    *metrics.TrafficStats
}

// matrixRun is one execution of the matrix.
type matrixRun struct {
	cells []cellOut
	walls map[string]time.Duration // per cell key (host time, not deterministic)
	wall  time.Duration
	cpu   time.Duration
	mem   float64 // live-heap p90, MiB
}

// runMatrix executes the matrix once through the harness entry point.
// progress, when non-nil, receives the pool's per-cell progress lines.
func (s matrixShape) runMatrix(p *matrixPlan, seed int64, progress *cellClock) (*matrixRun, error) {
	log := metrics.NewReportLog()
	sweep := harness.Sweep{Workers: matrixWorkers, Collector: log}
	if progress != nil {
		sweep.Progress = progress
	}
	mem := startMemSampler()
	c0, w0 := cpuTime(), time.Now()
	var trafficRes []harness.TrafficResult
	if s.traffic {
		o := harness.DefaultTrafficOptions()
		o.Seed, o.Groups, o.PerGroup, o.Sessions, o.Scenarios, o.Sweep = seed, s.groups, s.perGroup, s.sessions, s.scenarios, sweep
		trafficRes = harness.TrafficMatrix(o)
	} else {
		o := harness.DefaultChaosOptions()
		o.Seed, o.Groups, o.PerGroup, o.Scenarios, o.Sweep = seed, s.groups, s.perGroup, s.scenarios, sweep
		harness.ChaosMatrix(o)
	}
	run := &matrixRun{wall: time.Since(w0), cpu: cpuTime() - c0, mem: mem.Stop(), walls: map[string]time.Duration{}}
	reps := log.Reports()
	if want := len(p.cells); len(reps) != want || (s.traffic && len(trafficRes) != want) {
		return nil, fmt.Errorf("matrix returned %d reports for %d cells", len(reps), want)
	}
	for i, rep := range reps {
		pc := p.cells[i]
		if rep.Key != pc.key {
			return nil, fmt.Errorf("report %d is %q, want %q", i, rep.Key, pc.key)
		}
		c := cellOut{
			Key: rep.Key, Scheme: pc.scheme.String(), Hosts: pc.hosts,
			Virtual: rep.Virtual, Events: rep.Events, Pkts: rep.PktsDelivered, Bytes: rep.BytesDelivered,
			Dropped: rep.PktsDropped, Rejected: rep.PktsRejected, Spurious: rep.SpuriousEvictions,
		}
		for _, inv := range rep.Invariants {
			c.Checks += inv.Checks
			c.Violations += inv.Violations
			if inv.Violations > 0 {
				c.Failing = append(c.Failing, fmt.Sprintf("%s %d/%d", inv.Name, inv.Violations, inv.Checks))
			}
		}
		if s.traffic {
			st := trafficRes[i].Traffic
			c.Traffic = &st
		}
		run.cells = append(run.cells, c)
		run.walls[rep.Key] = rep.Wall
	}
	return run, nil
}

// matrixSummary is the deterministic per-matrix outcome.
type matrixSummary struct {
	BW        float64 // bytes per node per virtual second, over all cells
	Spurious  uint64
	ReqP50    float64 // ms, median over cells
	ReqP99    float64
	MigP99    float64 // ms, median over cells that migrated sessions
	MigCells  int
	Requests  uint64
	Sessions  uint64
	Migrated  uint64
	Relayed   uint64
	Events    uint64
	Pkts      uint64
	Bytes     uint64
	Dropped   uint64
	Rejected  uint64
	Operation tally
}

func (s matrixShape) summarize(run *matrixRun) (matrixSummary, []string) {
	var sum matrixSummary
	var bad []string
	var nodeSeconds float64
	var p50s, p99s, migs []float64
	for _, c := range run.cells {
		nodeSeconds += float64(c.Hosts) * c.Virtual.Seconds()
		sum.Events += c.Events
		sum.Pkts += c.Pkts
		sum.Bytes += c.Bytes
		sum.Dropped += c.Dropped
		sum.Rejected += c.Rejected
		sum.Spurious += c.Spurious
		if t := c.Traffic; t != nil {
			if t.Requests == 0 {
				bad = append(bad, fmt.Sprintf("cell %s issued no requests", c.Key))
			}
			if t.OK > t.Requests {
				bad = append(bad, fmt.Sprintf("cell %s: %d ok of %d requests", c.Key, t.OK, t.Requests))
			} else {
				sum.Operation.merge(tally{t.Requests, t.Requests - t.OK})
			}
			sum.Requests += t.Requests
			sum.Sessions += t.Sessions
			sum.Migrated += t.Migrations
			sum.Relayed += t.Relayed
			p50s = append(p50s, ms(t.ReqP50))
			p99s = append(p99s, ms(t.ReqP99))
			if t.Migrations > 0 {
				migs = append(migs, ms(t.MigP99))
			}
		} else {
			if c.Checks == 0 {
				bad = append(bad, fmt.Sprintf("cell %s audited nothing", c.Key))
			}
			if err := sum.Operation.add(c.Checks, c.Violations); err != nil {
				bad = append(bad, fmt.Sprintf("cell %s: %v", c.Key, err))
			}
		}
	}
	if nodeSeconds > 0 {
		sum.BW = float64(sum.Bytes) / nodeSeconds
	}
	sum.ReqP50, sum.ReqP99 = median(p50s), median(p99s)
	sum.MigP99, sum.MigCells = median(migs), len(migs)
	return sum, bad
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// A matrix run times at least matrixSetups set-up samples, each the mean
// over back-to-back plans that together take at least setupSample:
// setupsPerRun before every repetition, so the samples span the run as its
// repetitions do, and the rest after the last one. A plan takes one to a
// few milliseconds, so a single one is timed at the scale of a scheduler
// tick and of the GC cycles its garbage sets off; a sample is not.
const (
	matrixSetups = 15
	setupsPerRun = 5
	setupSample  = 100 * time.Millisecond
)

// matrixUntraced measures a matrix end to end: one untimed plan (the
// process's first pass through that code), then whole matrix runs while
// another fits in the budget (at least one), with set-up samples taken
// between them.
func matrixUntraced(cfg runConfig, s matrixShape) (*result, error) {
	res := &result{metrics: newMetricSet(endToEnd)}
	var setups, walls, cpus, mems []float64
	plan, err := s.plan()
	if err != nil {
		return nil, err
	}
	// setUp times n set-up samples from a returned heap.
	setUp := func(n int) error {
		settle()
		for i := 0; i < n; i++ {
			start, plans := time.Now(), 0
			for ; plans == 0 || time.Since(start) < setupSample; plans++ {
				if plan, err = s.plan(); err != nil {
					return err
				}
			}
			setups = append(setups, time.Since(start).Seconds()/float64(plans))
		}
		return nil
	}
	var first *matrixSummary
	var firstCells []cellOut
	begin := time.Now()
	var last time.Duration
	for it := 0; it == 0 || time.Since(begin)+last <= cfg.seconds; it++ {
		if err := setUp(setupsPerRun); err != nil {
			return nil, err
		}
		settle()
		run, err := s.runMatrix(plan, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		walls, cpus, mems = append(walls, run.wall.Seconds()), append(cpus, run.cpu.Seconds()), append(mems, run.mem)
		last = run.wall
		sum, bad := s.summarize(run)
		fmt.Fprintf(cfg.out, "run %d: wall %.3fs cpu %.3fs mem %.1fMB cells %d events %d failed %d/%d\n",
			it+1, run.wall.Seconds(), run.cpu.Seconds(), run.mem, len(run.cells), sum.Events, sum.Operation.Failed, sum.Operation.Attempted)
		if first == nil {
			first, firstCells, res.tally = &sum, run.cells, sum.Operation
			for _, p := range bad {
				res.problem("%s", p)
			}
		} else if !sameCells(firstCells, run.cells) {
			res.problem("matrix run %d is not deterministic", it+1)
		}
	}
	if n := matrixSetups - len(setups); n > 0 {
		if err := setUp(n); err != nil {
			return nil, err
		}
	}
	m := res.metrics
	m.set("wall_s", median(walls))
	m.set("setup_s", median(setups))
	m.set("heap_live_p90_mb", median(mems))
	m.set("bw_bytes_node_s", first.BW)
	printE2E(cfg, m, len(walls), setups)
	fmt.Fprintf(cfg.out, "host   cpu %.4f s (median of %d runs; not gated)\n", median(cpus), len(cpus))
	s.printPaper(cfg, *first, firstCells)
	return res, nil
}

func sameCells(a, b []cellOut) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Virtual != y.Virtual || x.Events != y.Events || x.Pkts != y.Pkts ||
			x.Bytes != y.Bytes || x.Checks != y.Checks || x.Violations != y.Violations || x.Spurious != y.Spurious {
			return false
		}
		if (x.Traffic == nil) != (y.Traffic == nil) || (x.Traffic != nil && *x.Traffic != *y.Traffic) {
			return false
		}
	}
	return true
}

// printPaper prints the matrix's simulated paper metrics and, for the
// chaos matrix, every cell that violated an invariant.
func (s matrixShape) printPaper(cfg runConfig, sum matrixSummary, cells []cellOut) {
	fmt.Fprintf(cfg.out, "paper  bw_bytes_node_s     %12.2f B/node/s (V, %d cells)\n", sum.BW, len(cells))
	if s.traffic {
		fmt.Fprintf(cfg.out, "paper  req_p50_ms          %12.3f ms (V, median over %d cells of each cell's p50; %d requests)\n", sum.ReqP50, len(cells), sum.Requests)
		fmt.Fprintf(cfg.out, "paper  req_p99_ms          %12.3f ms (V, median over %d cells of each cell's p99; %d requests)\n", sum.ReqP99, len(cells), sum.Requests)
		fmt.Fprintf(cfg.out, "paper  mig_p99_ms          %12.3f ms (V, median over the %d cells with migrations; %d migrations)\n", sum.MigP99, sum.MigCells, sum.Migrated)
		return
	}
	fmt.Fprintf(cfg.out, "paper  spurious_evictions  %12d count (V, sum over %d cells)\n", sum.Spurious, len(cells))
	for _, c := range cells {
		if len(c.Failing) > 0 {
			fmt.Fprintf(cfg.out, "violations %s: %s\n", c.Key, strings.Join(c.Failing, ", "))
		}
	}
}

// cellClock is the pool's Progress writer in the traced pass: it stamps
// each cell's completion, from which (with the collected wall) the cell's
// span is reconstructed.
type cellClock struct {
	tr   *tracer
	done map[string]int64 // cell key → completion, tracer clock
}

func (c *cellClock) Write(p []byte) (int, error) {
	now := c.tr.now()
	for _, line := range strings.Split(string(p), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "run" {
			c.done[f[1]] = now
		}
	}
	return len(p), nil
}

// runUnauditedChaos is the chaos matrix's unaudited twin: every cell built
// and run as harness.RunScenario does, minus the auditor, through a pool
// with the same keys (hence seeds) and workers. The auditor only reads, so
// each twin cell must deliver the packets and bytes of its audited cell;
// matrixTraced checks that, which ties this construction to the harness's.
func (s matrixShape) runUnauditedChaos(p *matrixPlan, seed int64) (time.Duration, []metrics.RunReport, error) {
	o := harness.DefaultChaosOptions()
	pool := harness.NewPool(harness.Sweep{Workers: matrixWorkers}, seed)
	errs := make([]error, len(p.cells))
	for i, pc := range p.cells {
		i, sc, scheme := i, p.scenarios[i/len(s.schemes())], pc.scheme
		pool.Go(pc.key, func(seed int64) metrics.RunReport {
			c, fed := s.cellCluster(scheme, sc, seed)
			c.StartAll()
			env := chaos.NewEnv(c.Eng, c.Net, c.Top, chaosNodes(c))
			if fed != nil {
				env.Proxies = fed.ProxyHandles()
			}
			if errs[i] = sc.Install(env); errs[i] != nil {
				return metrics.RunReport{}
			}
			deadline := c.Eng.Now() + sc.End() + harness.ChaosSettle(scheme, c.Top.NumHosts())
			c.Eng.Run(deadline + o.Enforce)
			return c.Observe()
		})
	}
	start := time.Now()
	reps := pool.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return wall, reps, nil
}

// captureCompanion runs small cells of the matrix's shape with a capture
// filter on every endpoint, collecting the wire replay corpus the matrix
// cells (built inside the harness) cannot expose: the kill-restart
// timeline on the hierarchical and gossip schemes for the chaos matrix,
// and a hierarchical cluster serving closed-loop sessions for the traffic
// matrix.
func (s matrixShape) captureCompanion(seed int64) (*capture, error) {
	cp := newCapture(seed)
	sc, err := chaos.Find("kill-restart", s.groups, s.perGroup)
	if err != nil {
		return nil, err
	}
	schemes := []harness.Scheme{harness.Hierarchical, harness.Gossip}
	if s.traffic {
		schemes = []harness.Scheme{harness.Hierarchical}
	}
	for _, scheme := range schemes {
		c := harness.NewCluster(scheme, topology.Clustered(s.groups, s.perGroup), harness.DeriveSeed(seed, "capture/"+scheme.String()))
		for h := range c.Nodes {
			c.Net.Endpoint(topology.HostID(h)).SetFilter(cp.filter)
		}
		var layer *traffic.Layer
		if s.traffic {
			rts, err := attachApp(c, harness.DefaultTrafficOptions().Partitions)
			if err != nil {
				return nil, err
			}
			layer = s.sessionLayer(c, rts)
		}
		c.StartAll()
		env := chaos.NewEnv(c.Eng, c.Net, c.Top, chaosNodes(c))
		if err := sc.Install(env); err != nil {
			return nil, err
		}
		if layer != nil {
			c.Eng.Schedule(10*time.Second, layer.Start)
		}
		c.Eng.Run(sc.End() + 20*time.Second)
	}
	return cp, nil
}

// matrixTraced is a matrix's traced pass: an untraced reference run (wall,
// CPU, GC, cell walls), a run whose pool progress stamps each cell's span,
// the chaos matrix's unaudited twin, and the wire replay over a companion
// capture.
func matrixTraced(cfg runConfig, s matrixShape) (*result, error) {
	res := &result{metrics: newMetricSet(perLayer)}
	m := res.metrics

	settle()
	g0 := readGC()
	plan, err := s.plan()
	if err != nil {
		return nil, err
	}
	ref, err := s.runMatrix(plan, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	gc := readGC().sub(g0)
	sum, bad := s.summarize(ref)
	for _, p := range bad {
		res.problem("%s", p)
	}
	res.tally = sum.Operation

	settle()
	tr := newTracer(cfg.seed)
	res.tracer = tr
	root := tr.open(cfg.workload)
	runSpan := tr.open("run")
	clock := &cellClock{tr: tr, done: map[string]int64{}}
	traced, err := s.runMatrix(plan, cfg.seed, clock)
	if err != nil {
		return nil, err
	}
	tr.close(runSpan)
	tr.close(root)
	for _, c := range traced.cells {
		end, ok := clock.done[c.Key]
		if !ok {
			res.problem("no progress line for cell %s", c.Key)
			continue
		}
		tr.add(span{Parent: runSpan, Name: "harness.cell", Start: end - int64(traced.walls[c.Key]), End: end})
	}
	if !sameCells(ref.cells, traced.cells) {
		res.problem("non-perturbation: the traced matrix run differs from the untraced one")
	}

	var wallTwin time.Duration
	if !s.traffic {
		settle()
		var twin []metrics.RunReport
		if wallTwin, twin, err = s.runUnauditedChaos(plan, cfg.seed); err != nil {
			return nil, err
		}
		for i, c := range ref.cells {
			if t := twin[i]; t.PktsDelivered != c.Pkts || t.BytesDelivered != c.Bytes || t.Virtual != c.Virtual {
				res.problem("unaudited twin cell %s delivered %d pkts / %d bytes by %v, the harness cell %d / %d by %v",
					c.Key, t.PktsDelivered, t.BytesDelivered, t.Virtual, c.Pkts, c.Bytes, c.Virtual)
			}
		}
		m.set("invariant.share", 1-wallTwin.Seconds()/ref.wall.Seconds())
		m.set("invariant.checks", float64(sum.Operation.Attempted))
		m.set("invariant.spurious_evictions", float64(sum.Spurious))
	}
	cp, err := s.captureCompanion(cfg.seed)
	if err != nil {
		return nil, err
	}
	stats, err := replay(cp)
	if err != nil {
		res.problem("%v", err)
	}
	setReplay(m, stats)

	fmt.Fprintf(cfg.out, "walls: untraced %.3fs traced %.3fs", ref.wall.Seconds(), traced.wall.Seconds())
	if !s.traffic {
		fmt.Fprintf(cfg.out, " unaudited twin %.3fs", wallTwin.Seconds())
	}
	fmt.Fprintf(cfg.out, "\nuntraced reference: wall %.4fs cpu %.4fs bw_bytes_node_s %.2f\n", ref.wall.Seconds(), ref.cpu.Seconds(), sum.BW)
	s.printPaper(cfg, sum, ref.cells)
	printReplay(cfg.out, stats)

	m.set("sim.events", float64(sum.Events))
	m.set("sim.events_per_s", float64(sum.Events)/ref.wall.Seconds())
	m.set("netsim.pkts_delivered", float64(sum.Pkts))
	m.set("netsim.bytes_delivered", float64(sum.Bytes))
	m.set("netsim.pkts_dropped", float64(sum.Dropped))
	m.set("netsim.pkts_rejected", float64(sum.Rejected))

	var cellWalls []float64
	var busy time.Duration
	schemeWall := map[string]time.Duration{}
	for _, c := range ref.cells {
		w := ref.walls[c.Key]
		cellWalls = append(cellWalls, ms(w))
		busy += w
		schemeWall[c.Scheme] += w
	}
	cw := sorted(cellWalls)
	m.set("harness.cell_wall_p50_ms", percentile(cw, 50).Value)
	m.set("harness.cell_wall_p90_ms", percentile(cw, 90).Value)
	m.set("harness.worker_idle_s", (time.Duration(matrixWorkers)*ref.wall - busy).Seconds())
	for scheme, w := range schemeWall {
		m.set("harness.scheme_wall_s."+schemeMetric(scheme), w.Seconds())
	}
	if s.traffic {
		m.set("traffic.sessions", float64(sum.Sessions))
		m.set("traffic.requests", float64(sum.Requests))
		m.set("traffic.migrations", float64(sum.Migrated))
		m.set("traffic.relayed", float64(sum.Relayed))
		m.set("traffic.req_p50_ms", sum.ReqP50)
		m.set("traffic.req_p99_ms", sum.ReqP99)
		m.set("traffic.mig_p99_ms", sum.MigP99)
	}
	setGC(m, gc, sum.Pkts)
	m.set("host.cpu_s", ref.cpu.Seconds())
	m.set("trace.overhead_s", (traced.wall - ref.wall).Seconds())
	fmt.Fprintf(cfg.out, "tracing overhead: %.3fs (traced %.3fs - untraced %.3fs)\n",
		(traced.wall - ref.wall).Seconds(), traced.wall.Seconds(), ref.wall.Seconds())
	fmt.Fprintf(cfg.out, "cell walls: p50 %s, p90 %s over %d cells, %d workers\n",
		percentile(cw, 50), percentile(cw, 90), len(cw), matrixWorkers)
	tr.printSelfTimes(cfg.out)
	printLayers(cfg, m)
	return res, nil
}
