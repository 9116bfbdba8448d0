package wire

import (
	"runtime"
	"testing"

	"repro/internal/membership"
)

// plainInfo is a record without services or attributes, the shape every
// churn-1k directory entry has.
func plainInfo(n int) membership.MemberInfo {
	return membership.MemberInfo{Node: membership.NodeID(n), Incarnation: 2, Version: uint64(n), Beat: 100 + uint64(n)}
}

func plainDirectory(n int) *DirectoryMsg {
	d := &DirectoryMsg{From: 0, Ask: true}
	for i := 0; i < n; i++ {
		d.Infos = append(d.Infos, plainInfo(i))
	}
	return d
}

func fullUpdate() *UpdateMsg {
	u := &UpdateMsg{Sender: 3, Seq: 42}
	for i := 0; i < 4; i++ {
		u.Updates = append(u.Updates, Update{
			ID: UpdateID{Origin: 3, Counter: uint32(40 + i)}, Kind: UChange,
			Subject: membership.NodeID(i), Info: plainInfo(i),
		})
	}
	u.Updates[3] = Update{ID: UpdateID{Origin: 3, Counter: 43}, Kind: ULeave, Subject: 9}
	return u
}

// TestAllocsAppendEncode gates the warm encode path of the two hottest
// packets at zero allocations.
func TestAllocsAppendEncode(t *testing.T) {
	for _, m := range []Message{
		&Heartbeat{Info: plainInfo(7), Level: 1, Leader: true, Backup: 2, Seq: 9},
		fullUpdate(),
	} {
		var enc Encoder
		buf := enc.AppendEncode(nil, m)
		if a := testing.AllocsPerRun(200, func() { buf = enc.AppendEncode(buf[:0], m) }); a != 0 {
			t.Errorf("%T: warm AppendEncode allocates %.1f per op, want 0", m, a)
		}
	}
}

// TestAllocsDecode gates decoding (and, for the viewed messages, iterating)
// a heartbeat, an update and a 1000-record plain directory at one
// allocation: the message header.
func TestAllocsDecode(t *testing.T) {
	var sink membership.MemberInfo
	cases := []struct {
		name    string
		payload []byte
		walk    func(Message)
	}{
		{"heartbeat", Encode(&Heartbeat{Info: plainInfo(7), Backup: 2, Seq: 9}), func(Message) {}},
		{"update", Encode(fullUpdate()), func(m Message) {
			u := m.(*UpdateMsg)
			for i := u.Len() - 1; i >= 0; i-- {
				sink = u.At(i).Info
			}
		}},
		{"directory-1000", Encode(plainDirectory(1000)), func(m Message) {
			for it := m.(*DirectoryMsg).Records(); it.Next(); {
				sink = it.Info()
			}
		}},
	}
	for _, c := range cases {
		a := testing.AllocsPerRun(100, func() {
			m, err := Decode(c.payload)
			if err != nil {
				t.Fatal(err)
			}
			c.walk(m)
		})
		if a > 1 {
			t.Errorf("%s: decode+iterate allocates %.1f per op, want ≤1", c.name, a)
		}
	}
	_ = sink
}

// TestEncodeDirectory pins EncodeDirectory to the bytes Encode produces for
// the directory's snapshot, in a buffer of exactly that size, allocated
// once.
func TestEncodeDirectory(t *testing.T) {
	dir := membership.NewDirectory(5)
	for i := 0; i < 1000; i++ {
		info := plainInfo(i)
		if i%100 == 3 {
			info = sampleInfo()
			info.Node = membership.NodeID(i)
			info.Attrs = append(info.Attrs, membership.KV{Key: "long", Value: string(make([]byte, 70000))})
		}
		dir.Upsert(info, membership.OriginRelayed, 0, 1, 0)
	}
	want := Encode(&DirectoryMsg{From: 5, Ask: true, Infos: dir.Snapshot()})
	got := EncodeDirectory(5, true, dir)
	if string(got) != string(want) {
		t.Fatal("EncodeDirectory differs from Encode of the snapshot")
	}
	if cap(got) != len(got) {
		t.Fatalf("buffer cap %d for %d bytes: not exactly sized", cap(got), len(got))
	}
	plain := membership.NewDirectory(5)
	for i := 0; i < 1000; i++ {
		plain.Upsert(plainInfo(i), membership.OriginRelayed, 0, 1, 0)
	}
	if a := testing.AllocsPerRun(50, func() { EncodeDirectory(5, false, plain) }); a > 1 {
		t.Fatalf("EncodeDirectory allocates %.1f per op, want ≤1 (the payload)", a)
	}
}

// TestHostileCountAllocation checks that a checksum-valid packet whose
// length prefix claims far more elements than it carries cannot make the
// decoder allocate more than a small multiple of its own length — both for
// a wild count and for the largest count the length check admits.
func TestHostileCountAllocation(t *testing.T) {
	const size = 60000
	minLen := map[Type]int{
		TDirectory: minInfoLen, TUpdate: minUpdateLen, TGossip: minGossipEntryLen,
		TProxySummary: minSummaryLen, TDirMatches: minDirMatchLen, TRapidView: minInfoLen,
	}
	for typ, min := range minLen {
		for _, count := range []uint32{60000, uint32(size / min)} {
			pkt := hostileCount(typ, count, size)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(pkt)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 8*uint64(len(pkt)) {
				t.Errorf("%v claiming %d elements in %d bytes: decode allocated %d bytes (err %v)",
					typ, count, len(pkt), got, err)
			}
		}
	}
}

// TestEncodeUpdate pins EncodeUpdate to Encode's bytes in an exactly sized
// buffer allocated once per packet.
func TestEncodeUpdate(t *testing.T) {
	for _, m := range []*UpdateMsg{fullUpdate(), {Sender: 1, Seq: 2}, {Sender: 3, Seq: 4, Updates: []Update{
		{ID: UpdateID{Origin: 3, Counter: 1}, Kind: UJoin, Subject: 7, Info: sampleInfo()},
	}}} {
		got := EncodeUpdate(m.Sender, m.Seq, m.Updates)
		if string(got) != string(Encode(m)) || cap(got) != len(got) {
			t.Fatalf("%+v: EncodeUpdate differs from Encode or is not exactly sized", m)
		}
	}
	m := fullUpdate()
	if a := testing.AllocsPerRun(200, func() { EncodeUpdate(m.Sender, m.Seq, m.Updates) }); a > 1 {
		t.Fatalf("EncodeUpdate allocates %.1f per op, want ≤1 (the payload)", a)
	}
}
