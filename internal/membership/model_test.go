package membership

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// dirModel is the Directory's semantics over a plain map: the reference
// the slab (owner entry, ID-indexed slab, out-of-window map) must agree
// with.
type dirModel struct {
	entries map[NodeID]Entry
	tombs   map[NodeID]tombstone
	tombTTL time.Duration
	events  []Event
}

func (m *dirModel) tombActive(info MemberInfo, now time.Duration) bool {
	ts, ok := m.tombs[info.Node]
	return ok && info.Incarnation <= ts.inc && info.Beat <= ts.beat && now-ts.at < m.tombTTL
}

func (m *dirModel) upsert(info MemberInfo, origin Origin, level int, relayer NodeID, now time.Duration) bool {
	if origin == OriginRelayed {
		if m.tombActive(info, now) {
			return false
		}
	} else {
		delete(m.tombs, info.Node)
	}
	e, ok := m.entries[info.Node]
	if !ok {
		m.entries[info.Node] = Entry{Info: info, Origin: origin, Level: level, Relayer: relayer, LastRefresh: now, Counter: info.Beat}
		m.events = append(m.events, Event{Type: EventJoin, Node: info.Node, Time: now})
		return true
	}
	if origin != OriginRelayed || info.Beat > e.Counter || info.Newer(e.Info) {
		e.LastRefresh = now
		if e.Origin != OriginSelf {
			e.Origin, e.Level, e.Relayer = origin, level, relayer
		}
	}
	if info.Beat > e.Counter {
		e.Counter, e.Info.Beat = info.Beat, info.Beat
	}
	if info.Newer(e.Info) {
		beat := e.Info.Beat
		e.Info = info
		e.Info.Beat = max(e.Info.Beat, beat)
		m.events = append(m.events, Event{Type: EventUpdate, Node: info.Node, Time: now})
	}
	m.entries[info.Node] = e
	return false
}

func (m *dirModel) remove(n NodeID, now time.Duration) bool {
	e, ok := m.entries[n]
	if !ok {
		return false
	}
	m.tombs[n] = tombstone{at: now, inc: e.Info.Incarnation, beat: e.Counter}
	for tn, ts := range m.tombs {
		if now-ts.at >= m.tombTTL {
			delete(m.tombs, tn)
		}
	}
	delete(m.entries, n)
	m.events = append(m.events, Event{Type: EventLeave, Node: n, Time: now})
	return true
}

func (m *dirModel) nodes() []NodeID {
	out := make([]NodeID, 0, len(m.entries))
	for n := range m.entries {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestDirectoryMatchesModel runs random Upsert/Remove/Refresh/Reserve
// sequences over IDs on every storage path — the owner's own entry, both
// edges of a slab growth granule, deep in the slab, both edges of the slab
// window and a negative ID — and requires the Directory to agree with the
// map model on Len, Nodes, Snapshot, every entry (through Get and Range),
// the tombstones and the emitted event sequence after every step.
func TestDirectoryMatchesModel(t *testing.T) {
	const ttl = 5 * time.Second
	for _, owner := range []NodeID{7, 16, maxDense + 3} {
		ids := []NodeID{owner, 0, 15, 16, 1023, maxDense - 1, maxDense, -5}
		f := func(seed int64, ops []byte) bool {
			rng := rand.New(rand.NewSource(seed))
			d := NewDirectory(owner)
			d.SetTombstoneTTL(ttl)
			var events []Event
			d.SetObserver(func(e Event) { events = append(events, e) })
			m := &dirModel{entries: map[NodeID]Entry{}, tombs: map[NodeID]tombstone{}, tombTTL: ttl}
			now := time.Duration(0)
			for step, op := range ops {
				now += time.Duration(rng.Intn(2000)) * time.Millisecond
				id := ids[int(op>>3)%len(ids)]
				info := MemberInfo{Node: id, Incarnation: uint32(1 + rng.Intn(3)), Version: uint64(rng.Intn(4)), Beat: uint64(rng.Intn(20))}
				if rng.Intn(3) == 0 {
					info.Services = []ServiceDecl{{Name: "S", Partitions: []int32{int32(rng.Intn(4))}}}
					info.SetAttr("k", "v")
				}
				origin := []Origin{OriginSelf, OriginDirect, OriginRelayed, OriginRelayed}[rng.Intn(4)]
				level, relayer := rng.Intn(3), NodeID(rng.Intn(4))
				var got, want bool
				switch op % 5 {
				case 0, 1:
					got, want = d.Upsert(info, origin, level, relayer, now), m.upsert(info, origin, level, relayer, now)
				case 2:
					got, want = d.Remove(id, now), m.remove(id, now)
				case 3:
					got = d.Refresh(id, now)
					e, ok := m.entries[id]
					if ok {
						e.LastRefresh = now
						m.entries[id] = e
					}
					want = ok
				case 4:
					d.Reserve(id)
				}
				if got != want {
					t.Logf("owner %v step %d op %d on %v: result %v, model %v", owner, step, op%5, id, got, want)
					return false
				}
				if msg := compareWithModel(d, m, events); msg != "" {
					t.Logf("owner %v step %d op %d on %v: %s", owner, step, op%5, id, msg)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

func compareWithModel(d *Directory, m *dirModel, events []Event) string {
	nodes := m.nodes()
	if d.Len() != len(nodes) || !ViewEqual(d.Nodes(), nodes) {
		return "Len/Nodes differ"
	}
	snap := make([]MemberInfo, 0, len(nodes))
	for _, n := range nodes {
		snap = append(snap, m.entries[n].Info.Clone())
	}
	if !reflect.DeepEqual(d.Snapshot(), snap) {
		return "Snapshot differs"
	}
	for _, n := range []NodeID{d.owner, 0, 15, 16, 1023, maxDense - 1, maxDense, -5} {
		want, ok := m.entries[n]
		e := d.Get(n)
		if (e != nil) != ok || d.Has(n) != ok {
			return "presence differs for " + n.String()
		}
		if ok {
			got := *e
			got.live = false
			if !reflect.DeepEqual(got, want) {
				return "entry differs for " + n.String()
			}
		}
	}
	var ranged []NodeID
	bad := false
	d.Range(func(n NodeID, e *Entry) {
		ranged = append(ranged, n)
		bad = bad || e != d.Get(n)
	})
	if bad || !ViewEqual(ranged, nodes) {
		return "Range differs"
	}
	if len(d.tombs) != len(m.tombs) || len(m.tombs) > 0 && !reflect.DeepEqual(d.tombs, m.tombs) {
		return "tombstones differ"
	}
	if len(events) != len(m.events) || len(events) > 0 && !reflect.DeepEqual(events, m.events) {
		return "event sequence differs"
	}
	return ""
}
