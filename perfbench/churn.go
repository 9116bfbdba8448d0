package main

// churn-1k: the N=1000 rolling-churn run of `tampbench -fig scale`, built
// here step by step from the harness's public entry points (the same
// construction harness.ScaleChurn performs) so that set-up is timed on its
// own, restarts and view convergence are observable, and the traced pass
// can wrap each node's receive path.

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/invariant"
	"repro/internal/membership"
	"repro/internal/metrics"
	"repro/internal/parsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// churnShape sizes the churn run.
type churnShape struct {
	Groups, PerGroup, Churn int
}

// churn1k is harness.DefaultScaleOptions: 50 groups of 20, 5 cycles.
var churn1k = churnShape{Groups: 50, PerGroup: 20, Churn: 5}

func (s churnShape) n() int { return s.Groups * s.PerGroup }

// key is the pool key harness.ScaleChurn runs under; the run's seed is
// DeriveSeed(base, key), so both constructions see the same seed.
func (s churnShape) key() string {
	return fmt.Sprintf("scale/churn/%s/n=%d", harness.Hierarchical, s.n())
}

// scaleOptions is the harness.ScaleChurn call this workload reproduces:
// the parsim coordinator with one worker.
func (s churnShape) scaleOptions(seed int64) harness.ScaleOptions {
	return harness.ScaleOptions{Seed: seed, Groups: s.Groups, PerGroup: s.PerGroup, Churn: s.Churn,
		LPs: 1, Sweep: harness.Sweep{Workers: 1}}
}

// churnStart is when the first churn cycle begins. Before it the cluster
// bootstraps: all N nodes start at once and form the tree. Bootstrap cost
// depends strongly on the seed (at N=1000 it delivers 11M packets at one
// seed and 24M at another), while the churn phase after it delivers
// about 2.1M at every seed; the benchmark therefore times the two phases
// apart.
const churnStart = 20 * time.Second

// scenario is the scale run's timeline: from churnStart, every 5s the
// second member of the next group dies and restarts 2s later.
func (s churnShape) scenario() *chaos.Scenario {
	return &chaos.Scenario{
		Name: "scale-churn",
		Steps: []chaos.Step{
			{At: churnStart, Act: chaos.Repeat{
				Count: s.Churn, Every: 5 * time.Second, Stride: s.PerGroup,
				Body: []chaos.Step{
					{At: 0, Act: chaos.Kill{Node: 1}},
					{At: 2 * time.Second, Act: chaos.Restart{Node: 1}},
				},
			}},
		},
	}
}

// churnMode selects what a churn build carries besides the protocol.
type churnMode int

const (
	churnAudited   churnMode = iota // the measured run: auditors and observers on
	churnUnaudited                  // the twin for invariant.share: neither
)

// churnRun is one built, not yet started, churn run.
type churnRun struct {
	shape churnShape
	c     *harness.Cluster
	coord *parsim.Coordinator
	auds  []*invariant.Auditor
	nodes []*churnNode
	conv  *converge
	tr    *tracer
	seg   int32 // open parsim segment span (traced runs)
	end   time.Duration
	mark  phaseMark
}

// phaseMark is the host and network state when the churn phase begins,
// taken by an after-boundary hook (it reads, schedules nothing) at the
// first boundary at or after churnStart, once its actions have run. It
// does not collect: the bootstrap's garbage is collected when the program
// would collect it, inside the churn phase if that is where the GC lands.
type phaseMark struct {
	taken bool
	wall  time.Time
	cpu   time.Duration
	pkts  uint64
	bytes uint64
	virt  time.Duration
}

func (r *churnRun) markPhase() {
	if r.mark.taken || r.coord.Now() < churnStart {
		return
	}
	st := r.c.Net.TotalStats()
	r.mark = phaseMark{taken: true, wall: time.Now(), cpu: cpuTime(),
		pkts: st.PktsRecv, bytes: st.BytesRecv, virt: r.coord.Now()}
}

// churnNode is the chaos surface of one node: it delegates to the node and
// notes restarts, so convergence can be timed and Node.Stats (which Start
// resets) summed over the whole run.
type churnNode struct {
	*core.Node
	idx  int
	run  *churnRun
	base updateStats
}

func (w *churnNode) Start(eng *sim.Engine) {
	if w.run.tr != nil {
		w.run.tr.noteAction()
	}
	w.base = w.base.add(statsOf(w.Node))
	w.Node.Start(eng)
	w.run.conv.restarted(w.idx, eng.Now(), w.Info().Incarnation)
}

func (w *churnNode) Stop() {
	if w.run.tr != nil {
		w.run.tr.noteAction()
	}
	w.Node.Stop()
}

// updateStats is the slice of core.Stats the update-path metrics use.
type updateStats struct {
	Applied, Dup, Syncs uint64
}

func statsOf(n *core.Node) updateStats {
	s := n.Stats()
	return updateStats{Applied: s.UpdatesApplied, Dup: s.DuplicateUpdates, Syncs: s.SyncsRequested}
}

func (a updateStats) add(b updateStats) updateStats {
	return updateStats{a.Applied + b.Applied, a.Dup + b.Dup, a.Syncs + b.Syncs}
}

// buildChurn performs everything before the first simulation event:
// topology, cluster, parsim coordinator, chaos timeline and (audited mode)
// the per-LP auditors — in harness.ScaleChurn's order. A non-nil tracer
// additionally wraps every receive path and observes boundaries.
func buildChurn(s churnShape, seed int64, mode churnMode, tr *tracer) (*churnRun, error) {
	n := s.n()
	c := harness.NewCluster(harness.Hierarchical, topology.Clustered(s.Groups, s.PerGroup), seed)
	coord := c.EnableParsim(seed, 1)
	r := &churnRun{shape: s, c: c, coord: coord, tr: tr, seg: -1}
	if tr != nil {
		for i, inst := range c.Nodes {
			c.Net.Endpoint(topology.HostID(i)).SetHandler(tr.receiver(inst.(*core.Node)))
		}
	}
	c.StartAll()
	nodes := make([]chaos.Node, n)
	dirs := make([]*membership.Directory, n)
	for i, inst := range c.Nodes {
		w := &churnNode{Node: inst.(*core.Node), idx: i, run: r}
		r.nodes = append(r.nodes, w)
		nodes[i] = w
		dirs[i] = inst.Directory()
	}
	env := chaos.NewEnv(coord, c.Net, c.Top, nodes)
	env.EngineFor = func(i int) *sim.Engine { return c.Engs[c.Part.LPOf[i]] }
	sc := s.scenario()
	if err := sc.Install(env); err != nil {
		return nil, fmt.Errorf("install churn timeline: %w", err)
	}
	deadline := coord.Now() + sc.End() + harness.ChaosSettle(harness.Hierarchical, n)
	if mode == churnAudited {
		r.auds = c.StartParAuditors(invariant.Options{
			Interval:    10 * time.Second,
			Deadline:    deadline,
			PurgeBound:  harness.ChaosPurgeBound(harness.Hierarchical, n),
			LeaderGrace: harness.ChaosLeaderGrace,
			EventDriven: true,
		})
	}
	r.end = deadline + 15*time.Second
	r.conv = newConverge(dirs)
	if mode == churnUnaudited {
		// The twin is harness.ScaleChurn minus the auditors: no observers.
		return r, nil
	}
	for i, d := range dirs {
		d.AddObserver(r.conv.observer(i))
		if tr != nil {
			d.AddObserver(tr.observeDir)
		}
	}
	if tr != nil {
		coord.OnBoundary(func() { tr.boundaryDone(dirs, &r.seg) })
	}
	coord.OnBoundary(r.markPhase)
	return r, nil
}

// run executes the simulation to the end and returns the report.
func (r *churnRun) run() metrics.RunReport {
	r.coord.Run(r.end)
	if r.tr != nil {
		r.tr.close(r.seg)
	}
	rep := r.c.Observe()
	if r.auds != nil {
		rep.Invariants = harness.MergeAuditors(r.auds)
		for _, a := range r.auds {
			_, sp := a.Stability()
			rep.SpuriousEvictions += sp
		}
	}
	return rep
}

// updateTotals sums the update-path counters over every node's lifetime.
func (r *churnRun) updateTotals() updateStats {
	var t updateStats
	for _, w := range r.nodes {
		t = t.add(w.base).add(statsOf(w.Node))
	}
	return t
}

// restart is one node restart awaiting view convergence.
type restart struct {
	at   time.Duration
	inc  uint32
	seen []bool // per observing directory
}

// converge times view convergence: from a node's restart to the moment
// each other directory applies the new incarnation. One sample per
// (restart, other directory). Observers run on the single parsim worker.
type converge struct {
	dirs     []*membership.Directory
	pending  []*restart // by restarted node
	restarts int
	samples  []float64 // ms
}

func newConverge(dirs []*membership.Directory) *converge {
	return &converge{dirs: dirs, pending: make([]*restart, len(dirs))}
}

func (cv *converge) restarted(i int, at time.Duration, inc uint32) {
	cv.pending[i] = &restart{at: at, inc: inc, seen: make([]bool, len(cv.dirs))}
	cv.restarts++
}

func (cv *converge) observer(i int) func(membership.Event) {
	dir := cv.dirs[i]
	return func(e membership.Event) {
		s := int(e.Node)
		if e.Type == membership.EventLeave || s == i || s < 0 || s >= len(cv.pending) {
			return
		}
		r := cv.pending[s]
		if r == nil || r.seen[i] {
			return
		}
		if ent := dir.Get(e.Node); ent == nil || ent.Info.Incarnation < r.inc {
			return
		}
		r.seen[i] = true
		cv.samples = append(cv.samples, float64(e.Time-r.at)/float64(time.Millisecond))
	}
}

// expected is the sample count full convergence yields.
func (cv *converge) expected() int { return cv.restarts * (len(cv.dirs) - 1) }

// churnSummary is the deterministic outcome of one churn run.
type churnSummary struct {
	Det        detFields
	Converge50 quantile
	Converge99 quantile
	Samples    int
	Expected   int
	BW         float64 // churn phase
	BWRun      float64 // whole run, bootstrap included
	Spurious   uint64
}

// detFields are the RunReport fields the non-perturbation check compares.
type detFields struct {
	Virtual    time.Duration
	Events     uint64
	Pkts       uint64
	Bytes      uint64
	PeakDir    int
	Invariants string
}

func detOf(r metrics.RunReport) detFields {
	inv := ""
	for _, i := range r.Invariants {
		inv += fmt.Sprintf("%s=%d/%d ", i.Name, i.Violations, i.Checks)
	}
	return detFields{r.Virtual, r.Events, r.PktsDelivered, r.BytesDelivered, r.PeakDirSize, inv}
}

func (r *churnRun) summarize(rep metrics.RunReport) churnSummary {
	s := sorted(r.conv.samples)
	sum := churnSummary{
		Det:        detOf(rep),
		Converge50: percentile(s, 50),
		Samples:    len(s),
		Expected:   r.conv.expected(),
		BW:         float64(rep.BytesDelivered-r.mark.bytes) / float64(r.shape.n()) / (rep.Virtual - r.mark.virt).Seconds(),
		BWRun:      float64(rep.BytesDelivered) / float64(r.shape.n()) / rep.Virtual.Seconds(),
		Spurious:   rep.SpuriousEvictions,
	}
	sum.Converge99, _ = tail(s)
	return sum
}

// checkChurn lists what is wrong with a churn outcome.
func checkChurn(s churnShape, r *churnRun, sum churnSummary) []string {
	var bad []string
	if !r.mark.taken {
		bad = append(bad, "the run never reached the churn phase")
	}
	if sum.Det.PeakDir != s.n() {
		bad = append(bad, fmt.Sprintf("peak directory size %d, want N=%d", sum.Det.PeakDir, s.n()))
	}
	if sum.Samples != sum.Expected || sum.Expected == 0 {
		bad = append(bad, fmt.Sprintf("view convergence: %d of %d restart observations applied the new incarnation", sum.Samples, sum.Expected))
	}
	if sum.Det.Invariants == "" {
		bad = append(bad, "audited run reported no invariants")
	}
	return bad
}

// invTally counts invariant checks as attempted and violations as failed.
func invTally(rep metrics.RunReport) (tally, error) {
	var t tally
	for _, inv := range rep.Invariants {
		if err := t.add(inv.Checks, inv.Violations); err != nil {
			return t, fmt.Errorf("invariant %s: %w", inv.Name, err)
		}
	}
	return t, nil
}
