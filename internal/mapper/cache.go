package mapper

import (
	"context"
	"math"

	"secureloop/internal/memo"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// The search cache memoises SearchCachedCtx results across experiments
// (the same layer shapes recur in every figure's sweep). Concurrent
// requests for the same layer shape run one search and share the result.
//
// It is unbounded on purpose. On layers whose stride exceeds the filter
// extent the guided search's answer depends on warm-start history
// (DESIGN.md §12), so an evicted entry could be recomputed to different
// bytes, and a daemon without a persistent store would then answer an
// identical request differently.

type cacheKey struct {
	layer workload.Layer
	pesX  int
	pesY  int
	glb   int64
	rf    int64
	effBW float64
	topK  int
	// opt (canonical) is part of the identity: guided results at
	// Epsilon > 0 are admissible approximations, never interchangeable with
	// exhaustive entries (and whether warm seeding ran can matter at
	// Epsilon > 0 too).
	opt Options
}

var searchMemo = memo.New[cacheKey, []Candidate](0, hashCacheKey)

// The bound memo keeps SearchLowerBound per layer shape, PE array, RF size
// and effective bandwidth (boundKey). A sweep's pre-pass asks for the same
// layer bounds at every buffer size and again on every repeat of the sweep,
// so one entry serves them all. The bound is a pure function of its key, so
// the FIFO bound is safe: an evicted entry costs a recompute, never
// different bytes.
var boundMemo = memo.New[cacheKey, int64](boundCapacity, hashCacheKey)

const boundCapacity = 4096

// boundKey is req's bound memo key: the search memo's key without the
// layer name and the fields SearchLowerBound never reads (TopK, Opt and
// GLBBits: newGuidedPart, trafficFloor, fallbackCandidates and
// spatialChoices never touch the buffer capacity).
// TestSearchLowerBoundModeIndependent checks that none of them moves the
// bound.
func boundKey(req Request) cacheKey {
	key := cacheKey{
		layer: *req.Layer, pesX: req.PEsX, pesY: req.PEsY,
		rf: req.RFBits, effBW: req.EffectiveBytesPerCycle,
	}
	key.layer.Name = ""
	return key
}

func hashCacheKey(k cacheKey) uint64 {
	l := k.layer
	return memo.Hash(
		uint64(l.C), uint64(l.M), uint64(l.R), uint64(l.S), uint64(l.P), uint64(l.Q),
		uint64(l.StrideH), uint64(l.StrideW), uint64(l.PadH), uint64(l.PadW),
		uint64(l.N), uint64(l.WordBits), b2u(l.Depthwise),
		uint64(k.pesX), uint64(k.pesY), uint64(k.topK),
		uint64(k.glb), uint64(k.rf), math.Float64bits(k.effBW),
		uint64(k.opt.Mode), math.Float64bits(k.opt.Epsilon), b2u(k.opt.DisableWarmStart),
	)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// CacheStats snapshots the counters of the search memo, the tile-candidate
// memo, the warm-start store and the search-floor memo.
func CacheStats() (search, tile, warm, bound memo.Stats) {
	return searchMemo.Stats(), tileMemo.Stats(), warmMemo.Stats(), boundMemo.Stats()
}

// ResetCaches drops the search memo, the tile-candidate memo, the
// warm-start store and the search-floor memo, and zeroes their counters
// (benchmarks and tests that need a cold process).
func ResetCaches() {
	searchMemo.Reset()
	tileMemo.Reset()
	warmMemo.Reset()
	boundMemo.Reset()
}

// cacheTopK is the k the cache stores; requests for smaller k slice the
// cached result, so sweeping k (the paper's Figure 10) costs one search.
const cacheTopK = 10

// SearchCachedCtx is SearchCtx with process-wide memoisation. Requests with
// TopK <= cacheTopK share one cached search; larger requests bypass the
// prefix optimisation and cache at their own k. Concurrent requests for the
// same shape coalesce onto a single search. Failed or cancelled searches
// are never stored, so a cancelled request cannot poison the cache with a
// partial result; waiters coalesced onto a search whose leader fails retry
// with their own context (one becomes the new leader).
func SearchCachedCtx(ctx context.Context, req Request) ([]Candidate, error) {
	storeK := cacheTopK
	if req.TopK > storeK {
		storeK = req.TopK
	}
	key := cacheKey{
		layer: *req.Layer, pesX: req.PEsX, pesY: req.PEsY,
		glb: req.GLBBits, rf: req.RFBits,
		effBW: req.EffectiveBytesPerCycle, topK: storeK,
		opt: req.Opt.canonical(),
	}
	key.layer.Name = "" // shape-keyed: identical shapes share results
	val, err := searchMemo.Do(ctx, key, func() ([]Candidate, error) {
		full := req
		full.TopK = storeK
		return searchOrLoad(ctx, full, key)
	})
	if err != nil {
		return nil, err
	}
	return clipTopK(val, req.TopK), nil
}

// searchOrLoad resolves a cache miss: consult the persistent store first
// (read-through), fall back to the real search, and write the fresh result
// into the store. It runs only on the singleflight leader, so concurrent identical
// misses cost one disk lookup, not one per waiter. A record that fails to
// decode (version skew, corruption that slipped past the CRC) is treated
// as a miss — never an error.
func searchOrLoad(ctx context.Context, full Request, key cacheKey) ([]Candidate, error) {
	if full.Store == nil {
		return SearchCtx(ctx, full)
	}
	pk := persistSearchKey(key)
	if raw, ok := full.Store.Get(pk); ok {
		if val, derr := decodeCandidates(raw); derr == nil {
			return val, nil
		}
	}
	val, err := SearchCtx(ctx, full)
	if err == nil {
		full.Store.Put(store.KindMapper, pk, encodeCandidates(val))
	}
	return val, err
}

func clipTopK(got []Candidate, k int) []Candidate {
	if len(got) > k {
		got = got[:k]
	}
	return got
}
