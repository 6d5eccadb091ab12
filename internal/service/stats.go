package service

import (
	"secureloop/internal/authblock"
	"secureloop/internal/mapper"
	"secureloop/internal/memo"
	"secureloop/internal/store"
)

// Stats is the /v1/stats snapshot: the process-wide memos' counters, the
// search work of every flight this service finished (guided_search,
// authblock_optimal.runs and sweep_prune, each the sum of the flights'
// Accounting), the service's own request counters and the admission gate's
// instantaneous load.
type Stats struct {
	Service Counters  `json:"service"`
	Queue   QueueLoad `json:"queue"`

	MapperSearch  RatioStats      `json:"mapper_search_cache"`
	MapperTile    RatioStats      `json:"mapper_tile_cache"`
	MapperWarm    RatioStats      `json:"mapper_warm_store"`
	MapperBound   RatioStats      `json:"mapper_bound_cache"`
	GuidedSearch  GuidedStatsBody `json:"guided_search"`
	AuthOptimal   RatioStats      `json:"authblock_optimal"`
	AuthTileBlock RatioStats      `json:"authblock_tile_block"`
	AuthDecomp    RatioStats      `json:"authblock_decomp"`
	AuthSizes     RatioStats      `json:"authblock_sizes"`
	SweepPrune    PruneStatsBody  `json:"sweep_prune"`
	Store         *StoreStatsBody `json:"store,omitempty"`
}

// QueueLoad is the admission gate's instantaneous state.
type QueueLoad struct {
	Running  int   `json:"running"`
	Queued   int   `json:"queued"`
	MemInUse int64 `json:"mem_in_use_bytes"`
	Draining bool  `json:"draining"`
}

// RatioStats is one in-process memo's counters (see memo.Stats); Runs is
// set only for the AuthBlock optimal memo, where it counts the searches
// this service's flights actually ran (misses the persistent store could
// not answer either).
type RatioStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Shared    int64 `json:"shared,omitempty"`
	Stores    int64 `json:"stores,omitempty"`
	Evictions int64 `json:"evictions,omitempty"`
	Runs      int64 `json:"runs,omitempty"`
	Entries   int64 `json:"entries"`
}

// GuidedStatsBody is the best-first mapper search's counters on the wire.
// They count every search, in either mode.
type GuidedStatsBody struct {
	Searches  int64 `json:"searches"`
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	Skipped   int64 `json:"skipped"`
	WarmSeeds int64 `json:"warm_seeds"`
}

// PruneStatsBody is the sweep coordinator's counters on the wire.
type PruneStatsBody struct {
	Bounded     int64 `json:"bounded"`
	Pruned      int64 `json:"pruned"`
	Deferred    int64 `json:"deferred"`
	Reevaluated int64 `json:"reevaluated"`
	FullEvals   int64 `json:"full_evals"`
	StoreHits   int64 `json:"store_hits"`
}

// StoreStatsBody is the persistent store's counters on the wire.
type StoreStatsBody struct {
	Hits            int64 `json:"hits"`
	Misses          int64 `json:"misses"`
	Puts            int64 `json:"puts"`
	Corrupt         int64 `json:"corrupt"`
	EvictedSegments int64 `json:"evicted_segments"`
	Errors          int64 `json:"errors"`
	Entries         int   `json:"entries"`
	Bytes           int64 `json:"bytes"`
}

// Stats snapshots every counter the service can observe.
func (s *Service) Stats() Stats {
	out := Stats{Service: s.counters()}
	out.Queue.Running, out.Queue.Queued, out.Queue.MemInUse, out.Queue.Draining = s.adm.Load()

	ms, mt, mw, mb := mapper.CacheStats()
	out.MapperSearch, out.MapperTile, out.MapperWarm, out.MapperBound = ratioStats(ms), ratioStats(mt), ratioStats(mw), ratioStats(mb)
	ao, at, ad, as := authblock.CacheStats()
	out.AuthOptimal, out.AuthTileBlock, out.AuthDecomp, out.AuthSizes = ratioStats(ao), ratioStats(at), ratioStats(ad), ratioStats(as)
	s.mu.Lock()
	w := s.work
	s.mu.Unlock()
	out.GuidedSearch = GuidedStatsBody{Searches: w.MapperSearches, Evaluated: w.Evaluated, Pruned: w.Pruned, Skipped: w.Skipped, WarmSeeds: w.WarmSeeds}
	out.AuthOptimal.Runs = w.AuthBlockSearches
	ps := w.Sweep
	out.SweepPrune = PruneStatsBody{Bounded: int64(ps.Bounded), Pruned: int64(ps.Pruned), Deferred: int64(ps.Deferred),
		Reevaluated: int64(ps.Reevaluated), FullEvals: int64(ps.FullEvals), StoreHits: int64(ps.StoreHits)}
	if st := s.cfg.Store; st != nil {
		out.Store = storeStatsBody(st.Stats())
	}
	return out
}

func ratioStats(s memo.Stats) RatioStats {
	return RatioStats{Hits: s.Hits, Misses: s.Misses, Shared: s.Shared, Stores: s.Stores, Evictions: s.Evictions, Entries: s.Entries}
}

func storeStatsBody(ss store.Stats) *StoreStatsBody {
	return &StoreStatsBody{
		Hits:            ss.Hits,
		Misses:          ss.Misses,
		Puts:            ss.Puts,
		Corrupt:         ss.Corrupt,
		EvictedSegments: ss.EvictedSegments,
		Errors:          ss.Errors,
		Entries:         ss.Entries,
		Bytes:           ss.Bytes,
	}
}

func (s *Service) counters() Counters {
	return Counters{
		Admitted:          s.admitted.Load(),
		Coalesced:         s.coalesced.Load(),
		RejectedQueueFull: s.rejQueue.Load(),
		RejectedTooLarge:  s.rejLarge.Load(),
		RejectedDraining:  s.rejDraining.Load(),
		Completed:         s.completed.Load(),
		Failed:            s.failed.Load(),
		Cancelled:         s.cancelled.Load(),
		StoreHits:         s.storeHits.Load(),
	}
}
