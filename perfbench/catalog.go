package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/harness"
)

// metricDef names one reported metric. The catalog below is the single
// source of the metric set; BENCHMARK.json must list exactly the same
// names, units and directions (checked at start-up and by the tests).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is reported by every untraced run of every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_p90_mb", "MB", "lower", 0.1},
	{"bw_bytes_node_s", "B/node/s", "lower", 0.025},
}

// wireTypes are the message types the wire replay table covers.
var wireTypes = []string{"heartbeat", "update", "directory", "gossip", "service_request", "service_reply"}

// receiveTypes classify core.Node.Receive calls in the traced churn run.
var receiveTypes = []string{"heartbeat", "update", "directory", "other"}

// schemeMetric maps a harness scheme name to a metric-name suffix ('+' is
// not allowed in a metric name).
func schemeMetric(scheme string) string {
	return strings.ToLower(strings.ReplaceAll(scheme, "+", "-"))
}

// perLayer is reported by every traced run of every workload. A layer a
// workload does not exercise, or that is unreachable from outside the
// program on that workload, reads 0; README.md lists which is which.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.bootstrap_s", Unit: "s", Better: "lower"},
		{Name: "netsim.pkts_delivered", Unit: "count", Better: "lower"},
		{Name: "netsim.bootstrap_pkts", Unit: "count", Better: "lower"},
		{Name: "netsim.bytes_delivered", Unit: "B", Better: "lower"},
		{Name: "netsim.multicast_copies", Unit: "count", Better: "lower"},
		{Name: "netsim.pkts_dropped", Unit: "count", Better: "lower"},
		{Name: "netsim.pkts_rejected", Unit: "count", Better: "lower"},
		{Name: "wire.decode_s", Unit: "s", Better: "lower"},
	}
	for _, kind := range []string{"decode", "encode"} {
		for _, t := range wireTypes {
			d = append(d,
				metricDef{Name: "wire." + kind + "_ns." + t, Unit: "ns", Better: "lower"},
				metricDef{Name: "wire." + kind + "_allocs." + t, Unit: "allocs", Better: "lower"})
		}
	}
	d = append(d,
		metricDef{Name: "core.receive_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.receive_self_s", Unit: "s", Better: "lower"})
	for _, t := range receiveTypes {
		d = append(d, metricDef{Name: "core.receive_calls." + t, Unit: "count", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "core.updates_applied", Unit: "count", Better: "lower"},
		metricDef{Name: "core.updates_dup", Unit: "count", Better: "lower"},
		metricDef{Name: "core.update_useful_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.syncs_requested", Unit: "count", Better: "lower"},
		metricDef{Name: "membership.events.join", Unit: "count", Better: "lower"},
		metricDef{Name: "membership.events.update", Unit: "count", Better: "lower"},
		metricDef{Name: "membership.events.leave", Unit: "count", Better: "lower"},
		metricDef{Name: "membership.lookup_us_p50", Unit: "us", Better: "lower"},
		metricDef{Name: "membership.lookup_us_p99", Unit: "us", Better: "lower"},
		metricDef{Name: "membership.converge_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "membership.converge_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "invariant.checks", Unit: "count", Better: "higher"},
		metricDef{Name: "invariant.share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "invariant.spurious_evictions", Unit: "count", Better: "lower"},
		metricDef{Name: "parsim.boundaries", Unit: "count", Better: "lower"},
		metricDef{Name: "parsim.boundary_s", Unit: "s", Better: "lower"},
		metricDef{Name: "harness.cell_wall_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.cell_wall_p90_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "harness.worker_idle_s", Unit: "s", Better: "lower"})
	for _, s := range harness.ChaosSchemes { // a superset of the traffic matrix's columns
		d = append(d, metricDef{Name: "harness.scheme_wall_s." + schemeMetric(s.String()), Unit: "s", Better: "lower"})
	}
	d = append(d,
		metricDef{Name: "traffic.sessions", Unit: "count", Better: "higher"},
		metricDef{Name: "traffic.requests", Unit: "count", Better: "higher"},
		metricDef{Name: "traffic.migrations", Unit: "count", Better: "lower"},
		metricDef{Name: "traffic.relayed", Unit: "count", Better: "lower"},
		metricDef{Name: "traffic.req_p50_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "traffic.req_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "traffic.mig_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "gc.alloc_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "gc.alloc_objects", Unit: "count", Better: "lower"},
		metricDef{Name: "gc.alloc_bytes_per_pkt", Unit: "B", Better: "lower"},
		metricDef{Name: "gc.cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "gc.cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "host.cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.overhead_s", Unit: "s", Better: "lower"})
	return d
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's values for one catalog.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

// set records a value; naming a metric outside the catalog is a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("perfbench: metric not in catalog: " + name)
}

// complete fills every metric not set with 0 — the documented reading of a
// layer the workload does not exercise or cannot expose — and returns the
// JSON object of the result line.
func (m *metricSet) complete() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// benchSpec is the part of BENCHMARK.json the program checks itself
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// checkSpec verifies that BENCHMARK.json at root lists exactly the
// workloads and metric catalogs this program reports.
func checkSpec(root string) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fmt.Errorf("read benchmark spec: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		return fmt.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if err := sameDefs("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameDefs("per_layer", spec.PerLayer, perLayer)
}

func sameDefs(section string, got, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, program reports %d", section, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("BENCHMARK.json %s[%d] = %+v, program reports %+v", section, i, got[i], want[i])
		}
	}
	return nil
}
