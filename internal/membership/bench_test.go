package membership

import "testing"

// snapshot1000 returns a 1000-record plain snapshot (no services or
// attributes) and a directory already holding every record, as a
// republication finds it.
func snapshot1000() ([]MemberInfo, *Directory) {
	infos := make([]MemberInfo, 1000)
	d := NewDirectory(500)
	for i := range infos {
		infos[i] = MemberInfo{Node: NodeID(i), Incarnation: 1, Version: 1, Beat: 1}
		d.Upsert(infos[i], OriginRelayed, 0, 1, 0)
	}
	return infos, d
}

// TestAllocsMergeSnapshot gates the anti-entropy merge: folding a snapshot
// into a populated directory allocates nothing.
func TestAllocsMergeSnapshot(t *testing.T) {
	infos, d := snapshot1000()
	beat := uint64(1)
	a := testing.AllocsPerRun(20, func() {
		beat++
		for _, info := range infos {
			info.Beat = beat
			d.Upsert(info, OriginRelayed, 0, 2, 0)
		}
	})
	if a != 0 {
		t.Fatalf("merging a 1000-record snapshot allocates %.1f per merge, want 0", a)
	}
}

// BenchmarkMergeDirectory1000 measures merging a 1000-record snapshot with
// advancing beats into a populated directory, the per-receiver cost of a
// leader's republication at N=1000.
func BenchmarkMergeDirectory1000(b *testing.B) {
	infos, d := snapshot1000()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, info := range infos {
			info.Beat = uint64(2 + i)
			d.Upsert(info, OriginRelayed, 0, 2, 0)
		}
	}
}
