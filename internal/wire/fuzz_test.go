package wire

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/membership"
)

// FuzzDecode exercises the strict decoder with arbitrary bytes plus
// mutations of every valid packet type. Decode must never panic and, when
// it succeeds, re-encoding the message must decode again (idempotent
// canonical form).
func FuzzDecode(f *testing.F) {
	seeds := []Message{
		&Heartbeat{Info: sampleInfo(), Level: 1, Leader: true, Backup: 2, Seq: 7, Pad: 8},
		&UpdateMsg{Sender: 3, Seq: 9, Updates: []Update{
			{ID: UpdateID{Origin: 3, Counter: 9}, Kind: ULeave, Subject: 5},
			{ID: UpdateID{Origin: 2, Counter: 1}, Kind: UJoin, Subject: 6, Info: sampleInfo()},
		}},
		&BootstrapRequest{From: 1, Level: 2},
		&DirectoryMsg{From: 4, Ask: true, Infos: []membership.MemberInfo{sampleInfo()}},
		&SyncRequest{From: 9},
		&Gossip{From: 5, Entries: []GossipEntry{{Counter: 3, Info: sampleInfo()}}, Pad: 16},
		&ProxySummary{DC: 1, Seq: 2, Chunk: 0, NChunks: 1, Entries: []SummaryEntry{{Service: "S", Partitions: []int32{1}, Nodes: 3}}},
		&ProxyUpdate{DC: 0, Seq: 4, Upserts: []SummaryEntry{{Service: "T", Nodes: 1}}, Removes: []string{"S"}},
		&ServiceRequest{ReqID: 1, From: 2, Service: "x", Partition: 3, Hops: 1, Payload: []byte("p")},
		&ServiceReply{ReqID: 1, OK: true, Payload: []byte("r")},
		&LoadPoll{From: 1, Token: 2},
		&LoadReply{Token: 2, Load: 3},
		&LoadReport{From: 1, Seq: 2, Load: 3},
		&DirQuery{Service: "Retr.*", Partition: "*"},
		&DirMatches{OK: true, Matches: []DirMatch{{
			Node: 2, Service: "S", Partitions: []int32{0, 1},
			Params: []membership.KV{{Key: "Port", Value: "80"}},
			Attrs:  []membership.KV{{Key: "mem", Value: "2G"}},
		}}},
		&RapidBeat{From: 3, ConfigSeq: 2, Inc: 1, Beat: 99, Pad: 8},
		&RapidInfo{ConfigSeq: 2, Info: sampleInfo()},
		&RapidAlert{Observer: 1, Subject: 2, ConfigSeq: 3, Seq: 4, Down: true},
		&RapidJoin{From: 7, ConfigSeq: 2, Info: sampleInfo()},
		&RapidView{Seq: 3, Proposer: 0, Members: []membership.NodeID{0, 1, 2}, Infos: []membership.MemberInfo{sampleInfo()}},
		&RapidProbe{From: 1, Token: 5},
		&RapidProbeAck{From: 2, Token: 5},
		&RapidSync{From: 4, ConfigSeq: 1},
		&RapidPropose{From: 0, Token: 6, Seq: 2, Evict: []membership.NodeID{7}},
		&RapidVote{From: 7, Token: 6, OK: false, Alive: []membership.NodeID{7}},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0x4D, 0x54, Version, 99, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Canonical round trip: what decodes must re-encode and decode to
		// an equal byte stream.
		re := Encode(m)
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2 := Encode(m2)
		if string(re) != string(re2) {
			t.Fatalf("canonical form unstable:\n%x\n%x", re, re2)
		}
	})
}

// FuzzRapidAlert drills the rapid alert/view decode paths specifically:
// these are the packets the cut detector and configuration installer trust,
// so mutations must either fail decode or survive the canonical round trip —
// never panic, never alias.
func FuzzRapidAlert(f *testing.F) {
	seeds := []Message{
		&RapidAlert{Observer: 0, Subject: 14, ConfigSeq: 1, Seq: 1, Down: true},
		&RapidAlert{Observer: 9, Subject: 3, ConfigSeq: 7, Seq: 200, Down: false},
		&RapidView{Seq: 2, Proposer: 0, Members: []membership.NodeID{0, 1, 2, 3}},
		&RapidView{Seq: 9, Proposer: 4, Members: []membership.NodeID{4}, Infos: []membership.MemberInfo{sampleInfo(), {Node: 4}}},
		&RapidBeat{From: 0, ConfigSeq: 1, Inc: 2, Beat: 3, Pad: 220},
		&RapidPropose{From: 0, Token: 3, Seq: 2, Evict: []membership.NodeID{14, 15}},
		&RapidVote{From: 14, Token: 3, OK: false, Alive: []membership.NodeID{14}},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Add([]byte{0x4D, 0x54, Version, byte(TRapidAlert), 0, 0, 0, 0})
	f.Add([]byte{0x4D, 0x54, Version, byte(TRapidView), 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(m)
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if v, ok := m.(*RapidView); ok {
			// Hostile member counts must have been bounded by the decoder:
			// the slice the installer iterates is exactly what the bytes
			// carried, no over-allocation.
			if len(v.Members) > len(data) {
				t.Fatalf("decoded %d members from %d bytes", len(v.Members), len(data))
			}
		}
	})
}

// oracleDecode is the materializing decoder that DirectoryMsg and UpdateMsg
// had before their records became views over the packet bytes: it builds
// Infos and Updates, and bounds length prefixes by one byte per element
// only. It reports ok=false for any other packet type.
func oracleDecode(b []byte) (m Message, ok bool, err error) {
	if len(b) < HeaderLen || (Type(b[3]) != TDirectory && Type(b[3]) != TUpdate) {
		return nil, false, nil
	}
	r := &reader{buf: b}
	if r.u16() != Magic || r.u8() != Version {
		return nil, true, fmt.Errorf("wire: bad header")
	}
	t := Type(r.u8())
	if sum := r.u32(); crc32.Checksum(b[HeaderLen:], crcTable) != sum {
		return nil, true, ErrChecksum
	}
	if t == TDirectory {
		d := &DirectoryMsg{From: membership.NodeID(r.i32()), Ask: r.bool()}
		n := r.sliceLen(1)
		if n > 0 {
			d.Infos = make([]membership.MemberInfo, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			d.Infos = append(d.Infos, decInfo(r))
		}
		m = d
	} else {
		u := &UpdateMsg{Sender: membership.NodeID(r.i32()), Seq: r.u64()}
		n := r.sliceLen(1)
		if n > 0 {
			u.Updates = make([]Update, 0, n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			var up Update
			up.ID.Origin = membership.NodeID(r.i32())
			up.ID.Counter = r.u32()
			up.Kind = UpdateKind(r.u8())
			if r.err == nil && (up.Kind < UJoin || up.Kind > UDepart) {
				r.fail(fmt.Errorf("wire: invalid update kind %d", uint8(up.Kind)))
			}
			up.Subject = membership.NodeID(r.i32())
			hasInfo := r.bool()
			if r.err == nil && hasInfo != (up.Kind == UJoin || up.Kind == UChange) {
				r.fail(fmt.Errorf("wire: update info flag inconsistent with kind %v", up.Kind))
			}
			if hasInfo {
				up.Info = decInfo(r)
			}
			u.Updates = append(u.Updates, up)
		}
		m = u
	}
	if err := r.done(); err != nil {
		return nil, true, err
	}
	return m, true, nil
}

// viewCorpus returns directory and update packets for the view fuzzers:
// valid ones (plain, service-bearing, mixed, empty), and truncated,
// bit-flipped and hostile-count variants, all with valid checksums.
func viewCorpus() [][]byte {
	plain := membership.MemberInfo{Node: 3, Incarnation: 1, Version: 2, Beat: 9}
	attrOnly := membership.MemberInfo{Node: 4, Attrs: []membership.KV{{Key: "k", Value: "v"}}}
	valid := [][]byte{
		Encode(&DirectoryMsg{From: 4, Ask: true, Infos: []membership.MemberInfo{sampleInfo(), plain}}),
		Encode(&DirectoryMsg{From: 1, Infos: []membership.MemberInfo{plain, attrOnly, sampleInfo(), plain}}),
		Encode(&DirectoryMsg{From: 2}),
		Encode(&UpdateMsg{Sender: 3, Seq: 9, Updates: []Update{
			{ID: UpdateID{Origin: 3, Counter: 9}, Kind: ULeave, Subject: 5},
			{ID: UpdateID{Origin: 2, Counter: 1}, Kind: UJoin, Subject: 6, Info: sampleInfo()},
			{ID: UpdateID{Origin: 2, Counter: 2}, Kind: UChange, Subject: 3, Info: plain},
			{ID: UpdateID{Origin: 1, Counter: 7}, Kind: UDepart, Subject: 1},
		}}),
		Encode(&UpdateMsg{Sender: 1, Seq: 1}),
	}
	out := append([][]byte(nil), valid...)
	rng := rand.New(rand.NewSource(12))
	for _, v := range valid {
		for cut := HeaderLen; cut < len(v); cut += 1 + len(v)/7 {
			out = append(out, reseal(append([]byte(nil), v[:cut]...)))
		}
		for k := 0; k < 4; k++ {
			b := append([]byte(nil), v...)
			b[HeaderLen+rng.Intn(len(b)-HeaderLen)] ^= byte(1 << rng.Intn(8))
			out = append(out, reseal(b))
		}
	}
	for _, t := range []Type{TDirectory, TUpdate} {
		out = append(out, hostileCount(t, 60000, 4096))
	}
	return out
}

// hostileCount builds a checksum-valid packet of type t whose first length
// prefix claims count elements, followed by size bytes of zeros.
func hostileCount(t Type, count uint32, size int) []byte {
	w := &writer{}
	w.begin(t)
	switch t {
	case TDirectory:
		w.i32(1)
		w.bool(false)
	case TUpdate:
		w.i32(1)
		w.u64(1)
	case TGossip:
		w.i32(1)
	case TProxySummary:
		w.u16(0)
		w.u64(1)
		w.u16(0)
		w.u16(1)
	case TDirMatches:
		w.bool(true)
		w.str("")
	case TRapidView:
		w.u64(1)
		w.i32(0)
		w.u32(0) // no members; the infos list carries the count
	}
	w.u32(count)
	w.buf = append(w.buf, make([]byte, size)...)
	return reseal(w.buf)
}

// FuzzDirectoryView checks the DirectoryMsg/UpdateMsg views against the
// materializing oracle: for any body (the checksum is recomputed so
// mutations reach the decoders) the view accepts exactly what the oracle
// accepts, yields the records the oracle builds, and re-encodes to the
// input bytes.
func FuzzDirectoryView(f *testing.F) {
	for _, b := range viewCorpus() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = reseal(append([]byte(nil), data...))
		want, ok, werr := oracleDecode(data)
		if !ok {
			return
		}
		got, err := Decode(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("view err = %v, oracle err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(materialize(got), want) {
			t.Fatalf("view records differ from the oracle's:\n view: %#v\noracle: %#v", materialize(got), want)
		}
		if d, ok := got.(*DirectoryMsg); ok {
			hi := membership.NoNode
			for _, info := range want.(*DirectoryMsg).Infos {
				hi = max(hi, info.Node)
			}
			if d.MaxNode() != hi {
				t.Fatalf("view MaxNode %v, oracle's records give %v", d.MaxNode(), hi)
			}
		}
		if re := Encode(got); !bytes.Equal(re, data) {
			t.Fatalf("re-encoding the view changed the bytes:\n%x\n%x", data, re)
		}
	})
}
