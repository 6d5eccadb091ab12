package mapper

import (
	"context"
	"sort"

	"secureloop/internal/memo"
)

// The tile-candidate memo caches computeTileCandidates per loop bound. The
// same small set of bounds (layer C/M/P/Q extents) recurs for every spatial
// choice of every layer of every design point, and the divisor/power-of-two
// construction is pure, so one process-wide table pays for itself within a
// single search. It is bounded: a memo keyed by arbitrary layer extents
// would otherwise grow for the lifetime of a long sweep over generated
// networks. Real sweeps touch a few dozen distinct bounds, far below the
// capacity.
var tileMemo = memo.New[int, []int](tileCapacity, func(bound int) uint64 { return uint64(bound) })

const tileCapacity = 1024

// tileCandidates returns candidate GLB tile sizes for a dimension bound,
// memoised per bound. Callers must treat the returned slice as read-only.
func tileCandidates(bound int) []int {
	// The compute cannot fail and the background wait is never cancelled.
	v, _ := tileMemo.Do(context.Background(), bound, func() ([]int, error) {
		return computeTileCandidates(bound), nil
	})
	return v
}

// computeTileCandidates builds the candidate set for a dimension bound: its
// divisors plus powers of two, capped to a small set, sorted ascending (the
// capacity breaks of the best-first search's pass A rely on the ascending
// order).
func computeTileCandidates(bound int) []int {
	if bound <= 1 {
		return []int{1}
	}
	set := map[int]bool{1: true, bound: true}
	for d := 2; d <= bound/d; d++ {
		if bound%d == 0 {
			set[d] = true
			set[bound/d] = true
		}
	}
	for v := 2; v < bound; v *= 2 {
		set[v] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	if len(out) > 12 {
		// Keep a spread: always 1 and bound, subsample the middle.
		kept := []int{out[0]}
		step := float64(len(out)-2) / 10
		for i := 0; i < 10; i++ {
			kept = append(kept, out[1+int(float64(i)*step)])
		}
		kept = append(kept, out[len(out)-1])
		out = dedupInts(kept)
	}
	return out
}
