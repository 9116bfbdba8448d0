package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/wire"
)

// replayRounds timed rounds of at least replayRound each give one
// (type, direction) its median ns/op, so a GC pause in one round does not
// set the figure.
const (
	replayRounds = 9
	replayRound  = 5 * time.Millisecond
)

// replayStat is the wire replay result for one message type.
type replayStat struct {
	Type        string
	Payloads    int
	Bytes       float64 // mean payload size
	DecodeNs    float64
	DecodeAlloc float64
	EncodeNs    float64
	EncodeAlloc float64
}

// replay decodes and re-encodes every captured payload of each type in a
// loop and reports ns/op and allocs/op. It also checks the round trip:
// re-encoding a decoded payload must reproduce its bytes exactly.
func replay(c *capture) ([]replayStat, error) {
	settle()
	var out []replayStat
	for ti, name := range wireTypes {
		ps := c.kept[ti]
		st := replayStat{Type: name, Payloads: len(ps)}
		if len(ps) == 0 {
			out = append(out, st)
			continue
		}
		msgs := make([]wire.Message, len(ps))
		var size int
		for i, p := range ps {
			m, err := wire.Decode(p)
			if err != nil {
				return nil, fmt.Errorf("wire replay: captured %s payload does not decode: %w", name, err)
			}
			if enc := wire.Encode(m); !bytes.Equal(enc, p) {
				return nil, fmt.Errorf("wire replay: %s payload %d does not round-trip (%d → %d bytes)", name, i, len(p), len(enc))
			}
			msgs[i] = m
			size += len(p)
		}
		st.Bytes = float64(size) / float64(len(ps))
		st.DecodeNs, st.DecodeAlloc = perOp(len(ps), func(i int) {
			if _, err := wire.Decode(ps[i]); err != nil {
				panic(err) // decoded cleanly above
			}
		})
		st.EncodeNs, st.EncodeAlloc = perOp(len(msgs), func(i int) { wire.Encode(msgs[i]) })
		out = append(out, st)
	}
	return out, nil
}

// perOp runs op over indices 0..n-1 in timed rounds and returns the median
// round's ns per call and the mean heap allocations per call.
func perOp(n int, op func(i int)) (ns, allocs float64) {
	for i := 0; i < n; i++ { // warm caches and lazily built tables
		op(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	rounds := make([]float64, replayRounds)
	for r := range rounds {
		start, c := time.Now(), 0
		for time.Since(start) < replayRound {
			for i := 0; i < n; i++ {
				op(i)
			}
			c += n
		}
		rounds[r] = float64(time.Since(start).Nanoseconds()) / float64(c)
		calls += c
	}
	runtime.ReadMemStats(&after)
	return median(rounds), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// setReplay records the replay table in the per-layer set.
func setReplay(m *metricSet, stats []replayStat) {
	for _, s := range stats {
		m.set("wire.decode_ns."+s.Type, s.DecodeNs)
		m.set("wire.decode_allocs."+s.Type, s.DecodeAlloc)
		m.set("wire.encode_ns."+s.Type, s.EncodeNs)
		m.set("wire.encode_allocs."+s.Type, s.EncodeAlloc)
	}
}

// printReplay writes the wire replay table.
func printReplay(w io.Writer, stats []replayStat) {
	fmt.Fprintf(w, "wire replay (captured payloads, this workload):\n")
	fmt.Fprintf(w, "  %-16s %8s %9s %12s %12s %12s %12s\n", "type", "payloads", "mean-B", "decode-ns/op", "decode-al/op", "encode-ns/op", "encode-al/op")
	for _, s := range stats {
		if s.Payloads == 0 {
			fmt.Fprintf(w, "  %-16s %8d %9s %12s %12s %12s %12s\n", s.Type, 0, "-", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		fmt.Fprintf(w, "  %-16s %8d %9.0f %12.0f %12.2f %12.0f %12.2f\n",
			s.Type, s.Payloads, s.Bytes, s.DecodeNs, s.DecodeAlloc, s.EncodeNs, s.EncodeAlloc)
	}
}
