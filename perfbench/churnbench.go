package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// minSetups is how many times a run sets up, at least, so setup_s is a
// median. Each set-up starts from a collected heap.
const minSetups = 9

// churnUntraced measures churn-1k end to end. Each repetition builds the
// run (construction, timed apart) and runs the whole simulation, which the
// phase mark splits into the bootstrap (start to the first churn action)
// and the churn phase (the rest). setup_s is the median construction;
// wall_s and bw_bytes_node_s cover the churn phase. The bootstrap is
// printed, not gated: its work depends on the seed (see churnStart).
// Repetitions continue while another fits in the budget (at least one);
// extra constructions top set-up up to minSetups samples.
func churnUntraced(cfg runConfig, s churnShape) (*result, error) {
	seed := harness.DeriveSeed(cfg.seed, s.key())
	res := &result{metrics: newMetricSet(endToEnd)}
	var builds, boots, walls, cpus, mems []float64
	for i := 0; i < minSetups-1; i++ {
		settle()
		start := time.Now()
		if _, err := buildChurn(s, seed, churnAudited, nil); err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	var first *churnSummary
	var bootPkts uint64
	begin := time.Now()
	var last time.Duration
	for it := 0; it == 0 || time.Since(begin)+last <= cfg.seconds; it++ {
		settle()
		iterStart := time.Now()
		r, err := buildChurn(s, seed, churnAudited, nil)
		if err != nil {
			return nil, err
		}
		builds = append(builds, time.Since(iterStart).Seconds())
		mem := startMemSampler()
		w0 := time.Now()
		rep := r.run()
		end, cpuEnd := time.Now(), cpuTime()
		mems = append(mems, mem.Stop())
		sum := r.summarize(rep)
		for _, p := range checkChurn(s, r, sum) {
			res.problem("%s", p)
		}
		if !r.mark.taken {
			return res, nil
		}
		boot, wall, cpu := r.mark.wall.Sub(w0), end.Sub(r.mark.wall), cpuEnd-r.mark.cpu
		boots, walls, cpus = append(boots, boot.Seconds()), append(walls, wall.Seconds()), append(cpus, cpu.Seconds())
		bootPkts = r.mark.pkts
		t, err := invTally(rep)
		if err != nil {
			res.problem("%v", err)
		}
		fmt.Fprintf(cfg.out, "run %d: construct %.3fs bootstrap %.3fs (%d pkts) churn phase: wall %.3fs cpu %.3fs | heap p90 %.1fMB events %d pkts %d violations %d/%d\n",
			it+1, builds[len(builds)-1], boot.Seconds(), r.mark.pkts, wall.Seconds(), cpu.Seconds(), mems[len(mems)-1],
			rep.Events, rep.PktsDelivered, t.Failed, t.Attempted)
		if first == nil {
			first, res.tally = &sum, t
		} else if !reflect.DeepEqual(*first, sum) {
			res.problem("run %d is not deterministic: %+v vs %+v", it+1, sum, *first)
		}
		last = time.Since(iterStart)
	}
	m := res.metrics
	m.set("wall_s", median(walls))
	m.set("setup_s", median(builds))
	m.set("heap_live_p90_mb", median(mems))
	m.set("bw_bytes_node_s", first.BW)
	printE2E(cfg, m, len(walls), builds)
	fmt.Fprintf(cfg.out, "host   bootstrap %.4f s for %d pkts (median of %d runs; not gated: its work depends on the seed)\n",
		median(boots), bootPkts, len(boots))
	fmt.Fprintf(cfg.out, "host   cpu %.4f s (churn phase, median of %d runs; not gated)\n", median(cpus), len(cpus))
	printChurnPaper(cfg, *first)
	return res, nil
}

// printChurnPaper prints churn-1k's simulated paper metrics.
func printChurnPaper(cfg runConfig, s churnSummary) {
	fmt.Fprintf(cfg.out, "paper  bw_bytes_node_s  %12.2f B/node/s (V, churn phase; whole run incl. bootstrap %.2f)\n", s.BW, s.BWRun)
	fmt.Fprintf(cfg.out, "paper  converge_p50_ms  %12.3f ms (V, %s)\n", s.Converge50.Value, s.Converge50)
	fmt.Fprintf(cfg.out, "paper  converge_p99_ms  %12.3f ms (V, %s)\n", s.Converge99.Value, s.Converge99)
}

// printE2E prints the end-to-end table of an untraced measurement.
func printE2E(cfg runConfig, m *metricSet, runs int, setups []float64) {
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "wall_s", "heap_live_p90_mb":
			note = fmt.Sprintf("(H, median of %d runs)", runs)
		case "setup_s":
			s := sorted(setups)
			note = fmt.Sprintf("(H, median of %d set-ups, range %.4f–%.4f)", len(s), s[0], s[len(s)-1])
		default:
			note = "(V, deterministic per seed)"
		}
		fmt.Fprintf(cfg.out, "metric %-17s %12.4f %-9s %s\n", d.Name, m.vals[d.Name], d.Unit, note)
	}
	fmt.Fprintf(cfg.out, "host   peak RSS %.1f MB (process ru_maxrss, set-up included; not gated)\n", peakRSSMB())
}

// churnTraced is the traced pass: harness.ScaleChurn at the same seed (the
// untraced reference: wall, CPU and GC), the traced run, and an unaudited
// twin. It fails loudly unless the traced run and harness.ScaleChurn agree
// on every deterministic report field, and the twin on every field the
// auditors do not add to; TestSmokeChurn holds the benchmark's untraced
// construction to the same. The simulated paper metrics come from the
// traced run, which is the same simulation.
func churnTraced(cfg runConfig, s churnShape) (*result, error) {
	seed := harness.DeriveSeed(cfg.seed, s.key())
	res := &result{metrics: newMetricSet(perLayer)}
	m := res.metrics

	settle()
	g0, c0, w0 := readGC(), cpuTime(), time.Now()
	scaleRep := harness.ScaleChurn(s.scaleOptions(cfg.seed))
	wallRef, cpuRef, gc := time.Since(w0), cpuTime()-c0, readGC().sub(g0)
	t, err := invTally(scaleRep)
	if err != nil {
		res.problem("%v", err)
	}
	res.tally = t

	settle()
	tr := newTracer(cfg.seed)
	res.tracer = tr
	root := tr.open(cfg.workload)
	setupSpan := tr.open("setup")
	traced, err := buildChurn(s, seed, churnAudited, tr)
	if err != nil {
		return nil, err
	}
	tr.close(setupSpan)
	runSpan := tr.open("run")
	w1 := time.Now()
	trRep := traced.run()
	wallTraced := time.Since(w1)
	tr.close(runSpan)
	tr.close(root)
	net := traced.c.Net.TotalStats()
	upd := traced.updateTotals()
	sum := traced.summarize(trRep)
	for _, p := range checkChurn(s, traced, sum) {
		res.problem("%s", p)
	}
	boot, bootPkts := traced.mark.wall.Sub(w1), traced.mark.pkts
	traced = nil

	settle()
	twin, err := buildChurn(s, seed, churnUnaudited, nil)
	if err != nil {
		return nil, err
	}
	w2 := time.Now()
	twinRep := twin.run()
	wallTwin := time.Since(w2)
	twin = nil

	if a, b := sum.Det, detOf(scaleRep); a != b {
		res.problem("non-perturbation: traced run %+v differs from harness.ScaleChurn %+v", a, b)
	} else {
		fmt.Fprintf(cfg.out, "non-perturbation: traced run and harness.ScaleChurn agree on %+v\n", sum.Det)
	}
	// The twin is the untraced construction minus the auditors, which only
	// read: at full size it must deliver what harness.ScaleChurn delivers.
	if a, b := unaudited(twinRep), unaudited(scaleRep); a != b {
		res.problem("unaudited twin %+v differs from harness.ScaleChurn %+v", a, b)
	}
	fmt.Fprintf(cfg.out, "whole-run walls: harness.ScaleChurn (untraced) %.3fs cpu %.3fs, traced %.3fs, unaudited twin %.3fs\n",
		wallRef.Seconds(), cpuRef.Seconds(), wallTraced.Seconds(), wallTwin.Seconds())
	printChurnPaper(cfg, sum)

	stats, err := replay(tr.capture)
	if err != nil {
		res.problem("%v", err)
	}
	setReplay(m, stats)
	printReplay(cfg.out, stats)

	m.set("sim.events", float64(trRep.Events))
	m.set("sim.events_per_s", float64(scaleRep.Events)/wallRef.Seconds())
	m.set("sim.bootstrap_s", boot.Seconds())
	m.set("netsim.pkts_delivered", float64(net.PktsRecv))
	m.set("netsim.bootstrap_pkts", float64(bootPkts))
	m.set("netsim.bytes_delivered", float64(net.BytesRecv))
	m.set("netsim.multicast_copies", float64(net.MulticastCopies))
	m.set("netsim.pkts_dropped", float64(net.Dropped))
	m.set("netsim.pkts_rejected", float64(net.Rejected))
	m.set("wire.decode_s", float64(tr.decodeNs)/1e9)
	m.set("core.receive_s", float64(tr.receiveNs)/1e9)
	m.set("core.receive_self_s", float64(tr.selfNs)/1e9)
	for i, name := range receiveTypes {
		m.set("core.receive_calls."+name, float64(tr.recvCalls[i]))
	}
	m.set("core.updates_applied", float64(upd.Applied))
	m.set("core.updates_dup", float64(upd.Dup))
	if upd.Applied+upd.Dup > 0 {
		m.set("core.update_useful_ratio", float64(upd.Applied)/float64(upd.Applied+upd.Dup))
	}
	m.set("core.syncs_requested", float64(upd.Syncs))
	m.set("membership.events.join", float64(tr.dirEvents[0]))
	m.set("membership.events.leave", float64(tr.dirEvents[1]))
	m.set("membership.events.update", float64(tr.dirEvents[2]))
	lk := sorted(tr.lookupUs)
	m.set("membership.lookup_us_p50", percentile(lk, 50).Value)
	m.set("membership.lookup_us_p99", percentile(lk, 99).Value)
	lkTail, ok := tail(lk)
	if !ok || lkTail.P < 99 {
		res.problem("only %d lookup probes: too few for a p99", len(lk))
	}
	m.set("membership.converge_p50_ms", sum.Converge50.Value)
	m.set("membership.converge_p99_ms", sum.Converge99.Value)
	m.set("invariant.checks", float64(t.Attempted))
	m.set("invariant.share", 1-wallTwin.Seconds()/wallRef.Seconds())
	m.set("invariant.spurious_evictions", float64(sum.Spurious))
	m.set("parsim.boundaries", float64(tr.boundaries))
	m.set("parsim.boundary_s", float64(tr.boundaryNs)/1e9)
	m.set("harness.cell_wall_p50_ms", wallRef.Seconds()*1e3)
	m.set("harness.cell_wall_p90_ms", wallRef.Seconds()*1e3)
	m.set("harness.scheme_wall_s."+schemeMetric(harness.Hierarchical.String()), wallRef.Seconds())
	setGC(m, gc, scaleRep.PktsDelivered)
	m.set("host.cpu_s", cpuRef.Seconds())
	m.set("trace.overhead_s", (wallTraced - wallRef).Seconds())
	fmt.Fprintf(cfg.out, "tracing overhead: %.3fs (traced %.3fs - untraced %.3fs)\n",
		(wallTraced - wallRef).Seconds(), wallTraced.Seconds(), wallRef.Seconds())
	fmt.Fprintf(cfg.out, "lookup probes: p50 %s, tail %s\n", percentile(lk, 50), lkTail)
	tr.printSelfTimes(cfg.out)
	printLayers(cfg, m)
	return res, nil
}

// unaudited is the part of a churn report that the auditors, which only
// read, leave unchanged (their sampling adds engine events).
func unaudited(r metrics.RunReport) detFields {
	return detFields{Virtual: r.Virtual, Pkts: r.PktsDelivered, Bytes: r.BytesDelivered, PeakDir: r.PeakDirSize}
}

// setGC records the runtime/metrics deltas of the measured run.
func setGC(m *metricSet, g gcSnap, pkts uint64) {
	m.set("gc.alloc_bytes", float64(g.AllocBytes))
	m.set("gc.alloc_objects", float64(g.AllocObjects))
	if pkts > 0 {
		m.set("gc.alloc_bytes_per_pkt", float64(g.AllocBytes)/float64(pkts))
	}
	m.set("gc.cycles", float64(g.Cycles))
	m.set("gc.cpu_s", g.CPUSeconds)
}

// printLayers prints the per-layer table.
func printLayers(cfg runConfig, m *metricSet) {
	for _, d := range perLayer {
		v, ok := m.vals[d.Name]
		if !ok {
			fmt.Fprintf(cfg.out, "layer  %-36s %16s %-6s (not exercised or not reachable on this workload; reported as 0)\n", d.Name, "n/a", d.Unit)
			continue
		}
		fmt.Fprintf(cfg.out, "layer  %-36s %16.4f %-6s\n", d.Name, v, d.Unit)
	}
}
