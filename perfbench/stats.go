package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail rule climbs: a latency is
// reported as its median plus the highest rung that still has at least
// minBeyond samples above it.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile is one reported percentile of a sample set, with the sample
// count it was taken over.
type quantile struct {
	P     float64
	Value float64
	N     int
}

func (q quantile) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d)", q.P, q.Value, q.N)
}

// rank is the nearest-rank position (1-based) of percentile p in n samples.
// The epsilon absorbs binary rounding of fractional percentiles (99.9% of
// 10000 is rank 9990, not 9991).
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) quantile {
	if len(sorted) == 0 {
		return quantile{P: p}
	}
	return quantile{P: p, Value: sorted[rank(p, len(sorted))-1], N: len(sorted)}
}

// tail applies the tail rule to sorted samples: the highest ladder
// percentile with at least minBeyond samples strictly beyond its rank. It
// reports false when even the median lacks that many (fewer than 20
// samples), in which case only the median may be quoted.
func tail(sorted []float64) (quantile, bool) {
	n := len(sorted)
	best, ok := quantile{}, false
	for _, p := range tailLadder {
		if n-rank(p, n) < minBeyond {
			break
		}
		best, ok = percentile(sorted, p), true
	}
	return best, ok
}

// median of unsorted values (mean of the middle two for even counts).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sorted returns a sorted copy of vals.
func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// tally counts operations attempted and failed, summed over cells or
// iterations.
type tally struct {
	Attempted uint64
	Failed    uint64
}

// add folds one cell's counts in; a cell cannot fail more operations than
// it attempted.
func (t *tally) add(attempted, failed uint64) error {
	if failed > attempted {
		return fmt.Errorf("cell failed %d of %d operations", failed, attempted)
	}
	t.Attempted += attempted
	t.Failed += failed
	return nil
}

// merge folds in another already-validated tally.
func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// share is the failed fraction; a run that attempted nothing has no share.
func (t tally) share() (float64, error) {
	if t.Attempted == 0 {
		return 0, fmt.Errorf("no operations attempted")
	}
	return float64(t.Failed) / float64(t.Attempted), nil
}
