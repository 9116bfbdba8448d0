package wire

import (
	"testing"

	"repro/internal/membership"
)

// BenchmarkEncodeHeartbeat measures the per-send encoding cost of the most
// frequent packet.
func BenchmarkEncodeHeartbeat(b *testing.B) {
	hb := &Heartbeat{Info: sampleInfo(), Leader: true, Backup: 2, Seq: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(hb)
	}
}

// BenchmarkDecodeHeartbeat measures the per-receive decoding cost.
func BenchmarkDecodeHeartbeat(b *testing.B) {
	payload := Encode(&Heartbeat{Info: sampleInfo(), Leader: true, Backup: 2, Seq: 7})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDirectory100 measures decoding a 100-entry snapshot (a
// bootstrap reply or anti-entropy republication at paper scale).
func BenchmarkDecodeDirectory100(b *testing.B) {
	infos := make([]membership.MemberInfo, 100)
	for i := range infos {
		infos[i] = sampleInfo()
		infos[i].Node = membership.NodeID(i)
	}
	payload := Encode(&DirectoryMsg{From: 0, Infos: infos})
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeGossip100 measures building a 100-member gossip view, the
// gossip baseline's per-round cost.
func BenchmarkEncodeGossip100(b *testing.B) {
	entries := make([]GossipEntry, 100)
	for i := range entries {
		entries[i] = GossipEntry{Counter: uint64(i), Info: sampleInfo()}
	}
	g := &Gossip{From: 0, Entries: entries}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(g)
	}
}

// BenchmarkAppendEncodeHeartbeat measures the pooled-buffer encode path the
// hot senders use: with a warm reused buffer it must not allocate at all.
func BenchmarkAppendEncodeHeartbeat(b *testing.B) {
	hb := &Heartbeat{Info: sampleInfo(), Leader: true, Backup: 2, Seq: 7}
	var enc Encoder
	buf := enc.AppendEncode(nil, hb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.AppendEncode(buf[:0], hb)
	}
	_ = buf
}

// BenchmarkAppendEncodeUpdate measures the pooled encode of an update with
// full piggyback depth, the second-hottest packet on the beat path.
func BenchmarkAppendEncodeUpdate(b *testing.B) {
	msg := &UpdateMsg{Sender: 3, Seq: 42}
	for i := 0; i < 4; i++ {
		msg.Updates = append(msg.Updates, Update{
			ID:      UpdateID{Origin: 3, Counter: uint32(40 + i)},
			Kind:    UChange,
			Subject: membership.NodeID(i),
			Info:    sampleInfo(),
		})
	}
	var enc Encoder
	buf := enc.AppendEncode(nil, msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.AppendEncode(buf[:0], msg)
	}
	_ = buf
}

// BenchmarkDecodeDirectory1000 measures decoding and walking a 1000-record
// plain snapshot — a bootstrap reply or leader republication at N=1000 —
// through the record view: one allocation, the message header.
func BenchmarkDecodeDirectory1000(b *testing.B) {
	payload := Encode(plainDirectory(1000))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Decode(payload)
		if err != nil {
			b.Fatal(err)
		}
		for it := m.(*DirectoryMsg).Records(); it.Next(); {
			nodeSink += it.Info().Node
		}
	}
}

// nodeSink keeps the benchmarked reads from being optimized away.
var nodeSink membership.NodeID
