package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// span is one timed interval of the traced run. Spans nest through Parent:
// workload → setup / run → segment (churn-1k: the windows between two
// parsim boundaries) or cell (matrices) → sampled Node.Receive → Decode.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// receiveSampleEvery is the Node.Receive sampling period for spans; the
// per-layer totals count every call.
const receiveSampleEvery = 4096

// maxSpans bounds the in-memory span buffer.
const maxSpans = 1 << 17

// captureK is how many payloads per message type the wire replay keeps;
// the receive wrapper offers every captureEvery-th delivery to the
// reservoir.
const (
	captureK     = 64
	captureEvery = 16
)

// tracer times the calls the benchmark makes into each layer. Spans stay
// in memory and are written out once at the end; totals are exact.
type tracer struct {
	epoch time.Time
	spans []span

	// cur is the innermost open span new children attach to.
	cur int32

	// wire / core receive path (churn-1k only).
	receives   uint64
	decodeNs   int64
	receiveNs  int64
	selfNs     int64
	recvCalls  [4]uint64 // indexed like receiveTypes
	capture    *capture
	boundaries uint64

	// parsim boundary batches: the first chaos node action of a batch
	// opens it, the last after-boundary hook closes it.
	batchStart int64
	boundaryNs int64

	// membership.
	dirEvents [3]uint64 // join, leave, update (membership.EventType order)
	lookupUs  []float64
}

func newTracer(seed int64) *tracer {
	return &tracer{epoch: time.Now(), cur: -1, batchStart: -1, capture: newCapture(seed)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span under the current one and makes it current.
func (t *tracer) open(name string) int32 {
	id := t.add(span{Parent: t.cur, Name: name, Start: t.now(), End: -1})
	if id >= 0 {
		t.cur = id
	}
	return id
}

// close ends span id and makes its parent current.
func (t *tracer) close(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.cur = t.spans[id].Parent
}

// add appends a finished or open span and returns its ID, or -1 once the
// buffer is full.
func (t *tracer) add(s span) int32 {
	if len(t.spans) >= maxSpans {
		return -1
	}
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

// receiveType classifies a decoded message for core.receive_calls.
func receiveType(m wire.Message) int {
	switch m.(type) {
	case *wire.Heartbeat:
		return 0
	case *wire.UpdateMsg:
		return 1
	case *wire.DirectoryMsg:
		return 2
	}
	return 3
}

// receiver wraps one node's delivery path. Installed with
// Endpoint.SetHandler before StartAll, it survives restarts: Node.Start
// claims the endpoint only when no handler is installed. It decodes first
// — filling the packet's shared decode memo, so Node.Receive's own Decode
// is a memo hit — and then hands the packet to the node unchanged.
func (t *tracer) receiver(n *core.Node) netsim.Handler {
	return func(pkt netsim.Packet) {
		t0 := t.now()
		msg, err := pkt.Decode()
		t1 := t.now()
		n.Receive(pkt)
		t2 := t.now()
		t.receives++
		t.decodeNs += t1 - t0
		t.receiveNs += t2 - t0
		t.selfNs += t2 - t1
		if err != nil {
			t.recvCalls[3]++
			return
		}
		t.recvCalls[receiveType(msg)]++
		if t.receives%captureEvery == 0 {
			t.capture.offer(msg, pkt.Payload)
		}
		if t.receives%receiveSampleEvery == 0 {
			rid := t.add(span{Parent: t.cur, Name: "core.Node.Receive", Start: t0, End: t2})
			if rid >= 0 {
				t.add(span{Parent: rid, Name: "wire.Packet.Decode", Start: t0, End: t1})
			}
		}
	}
}

// noteAction marks a chaos node action (Stop/Start), which only ever runs
// as a parsim boundary action; the first one of a batch opens it.
func (t *tracer) noteAction() {
	if t.batchStart < 0 {
		t.batchStart = t.now()
	}
}

// boundaryDone is the last after-boundary hook: it closes the batch the
// actions opened, probes directory lookups, and starts the next segment.
func (t *tracer) boundaryDone(dirs []*membership.Directory, seg *int32) {
	t.boundaries++
	if t.batchStart >= 0 {
		t.boundaryNs += t.now() - t.batchStart
		t.batchStart = -1
	}
	t.probeLookups(dirs)
	t.close(*seg)
	*seg = t.open("parsim.segment")
}

// lookupProbes is how many Directory.Lookup calls each boundary times,
// spread over the directories with a stride coprime to typical sizes.
const (
	lookupProbes      = 200
	lookupProbeStride = 7
)

// probeLookups times Directory.Lookup on a spread of directories. It runs
// between windows, reads only, and schedules nothing.
func (t *tracer) probeLookups(dirs []*membership.Directory) {
	for k := 0; k < lookupProbes; k++ {
		d := dirs[(k*lookupProbeStride)%len(dirs)]
		s := time.Now()
		if _, err := d.Lookup("app", "*"); err != nil {
			panic(err) // constant, valid pattern
		}
		t.lookupUs = append(t.lookupUs, float64(time.Since(s).Nanoseconds())/1e3)
	}
}

// observeDir counts a directory's change events by type.
func (t *tracer) observeDir(e membership.Event) {
	if int(e.Type) < len(t.dirEvents) {
		t.dirEvents[e.Type]++
	}
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover. Spans still open (End < 0) are skipped.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0 // overlapping children (parallel cells)
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// printSelfTimes writes the span self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d recorded (Node.Receive sampled 1/%d)\n", len(t.spans), receiveSampleEvery)
	for _, n := range names {
		fmt.Fprintf(w, "  self %-28s %12.6f s\n", n, st[n].Seconds())
	}
}

// write stores the spans, context and per-layer values as JSON under dir.
func (t *tracer) write(dir string, ctx runContext, layers map[string]metricValue) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", ctx.Workload, ctx.Seed))
	b, err := json.Marshal(struct {
		Context  runContext             `json:"context"`
		PerLayer map[string]metricValue `json:"per_layer"`
		Spans    []span                 `json:"spans"`
	}{ctx, layers, t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// capture reservoir-samples up to captureK payloads per wire replay type,
// with its own seeded stream so the corpus is reproducible.
type capture struct {
	rng  *rand.Rand
	seen [6]uint64
	kept [6][][]byte
}

func newCapture(seed int64) *capture {
	return &capture{rng: rand.New(rand.NewSource(seed))}
}

// wireType maps a message to its index in wireTypes, or -1.
func wireType(m wire.Message) int {
	switch m.(type) {
	case *wire.Heartbeat:
		return 0
	case *wire.UpdateMsg:
		return 1
	case *wire.DirectoryMsg:
		return 2
	case *wire.Gossip:
		return 3
	case *wire.ServiceRequest:
		return 4
	case *wire.ServiceReply:
		return 5
	}
	return -1
}

func (c *capture) offer(m wire.Message, payload []byte) {
	ti := wireType(m)
	if ti < 0 {
		return
	}
	c.seen[ti]++
	if len(c.kept[ti]) < captureK {
		c.kept[ti] = append(c.kept[ti], append([]byte(nil), payload...))
		return
	}
	if j := c.rng.Int63n(int64(c.seen[ti])); j < captureK {
		c.kept[ti][j] = append(c.kept[ti][j][:0], payload...)
	}
}

// filter is an Endpoint.SetFilter hook that captures and always delivers;
// it draws nothing from the simulation's random streams.
func (c *capture) filter(pkt netsim.Packet) bool {
	if m, err := pkt.Decode(); err == nil {
		c.offer(m, pkt.Payload)
	}
	return true
}
