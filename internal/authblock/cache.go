package authblock

import (
	"context"

	"secureloop/internal/memo"
)

// The optimal-assignment search and the baseline evaluation are pure
// functions of (ProducerGrid, ConsumerGrid, Params), all comparable
// structs, and the same grid pairs recur across scheduling algorithms,
// annealing iterations and design-space sweeps, so process-wide memos make
// repeated experiments cheap. Both are bounded so a daemon serving distinct
// AuthBlock traffic cannot grow them without limit; the capacity sits above
// every benchmark workload's peak, and since both searches are exact and
// pure an eviction changes no answer.

type cacheKey struct {
	p   ProducerGrid
	c   ConsumerGrid
	par Params
}

// resultCapacity bounds the optimal and tile-as-AuthBlock memos.
const resultCapacity = 1 << 15

var (
	optMemo  = memo.New[cacheKey, Result](resultCapacity, hashCacheKey)
	tileMemo = memo.New[cacheKey, tileEntry](resultCapacity, hashCacheKey)
)

func hashCacheKey(k cacheKey) uint64 {
	return memo.Hash(hashDecompKey(decompKey{p: k.p, c: k.c}), uint64(k.par.WordBits), uint64(k.par.HashBits))
}

type tileEntry struct {
	costs    Costs
	rehashed bool
}

// CacheStats snapshots the counters of the optimal-assignment memo, the
// tile-as-an-AuthBlock memo, the pair-decomposition memo and the
// candidate-size memo.
func CacheStats() (optimal, tile, decomp, sizes memo.Stats) {
	return optMemo.Stats(), tileMemo.Stats(), decompMemo.Stats(), sizeMemo.Stats()
}

// ResetCaches drops all memoised results and zeroes the counters, OptimalRuns
// included (benchmarks and tests that need a cold cache).
func ResetCaches() {
	optMemo.Reset()
	tileMemo.Reset()
	decompMemo.Reset()
	sizeMemo.Reset()
	optRuns.Store(0)
}

// TileAsAuthBlockCached is TileAsAuthBlock with process-wide memoisation.
func TileAsAuthBlockCached(p ProducerGrid, c ConsumerGrid, par Params) (Costs, bool) {
	// The compute cannot fail and the background wait is never cancelled.
	e, _ := tileMemo.Do(context.Background(), cacheKey{p: p, c: c, par: par}, func() (tileEntry, error) {
		costs, rehashed := TileAsAuthBlock(p, c, par)
		return tileEntry{costs: costs, rehashed: rehashed}, nil
	})
	return e.costs, e.rehashed
}
