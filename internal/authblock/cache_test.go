package authblock

import (
	"context"
	"sync"
	"testing"

	"secureloop/internal/memo"
)

func cacheFixtures() (ProducerGrid, ConsumerGrid, Params) {
	p := ProducerGrid{C: 4, H: 12, W: 10, TileC: 2, TileH: 6, TileW: 5, WritesPerTile: 1}
	c := ConsumerGrid{
		TileC: 2, WinH: 7, WinW: 6, StepH: 6, StepW: 5,
		OffH: -1, OffW: 0, CountC: 2, CountH: 2, CountW: 2,
		FetchesPerTile: 1,
	}
	return p, c, Params{WordBits: 8, HashBits: 64}
}

// optimalCached is OptimalStoredCtx without a persistent tier or a
// deadline.
func optimalCached(t testing.TB, p ProducerGrid, c ConsumerGrid, par Params) Result {
	t.Helper()
	r, err := OptimalStoredCtx(context.Background(), nil, p, c, par)
	if err != nil {
		t.Error(err)
	}
	return r
}

func TestOptimalCachedMatchesUncached(t *testing.T) {
	p, c, par := cacheFixtures()
	want := optimal(t, p, c, par)
	got := optimalCached(t, p, c, par)
	if got != want {
		t.Fatalf("cached %+v != uncached %+v", got, want)
	}
	// Second call hits the cache and must be identical.
	if again := optimalCached(t, p, c, par); again != want {
		t.Fatal("cache returned different result")
	}
}

func TestTileAsAuthBlockCachedMatchesUncached(t *testing.T) {
	p, c, par := cacheFixtures()
	wantCosts, wantRehash := TileAsAuthBlock(p, c, par)
	gotCosts, gotRehash := TileAsAuthBlockCached(p, c, par)
	if gotCosts != wantCosts || gotRehash != wantRehash {
		t.Fatalf("cached (%+v,%v) != uncached (%+v,%v)", gotCosts, gotRehash, wantCosts, wantRehash)
	}
}

func TestCacheStatsCountHitsAndMisses(t *testing.T) {
	ResetCaches()
	p, c, par := cacheFixtures()
	optimalCached(t, p, c, par)
	optimalCached(t, p, c, par)
	optimalCached(t, p, c, par)
	TileAsAuthBlockCached(p, c, par)
	TileAsAuthBlockCached(p, c, par)
	opt, tile, _, _ := CacheStats()
	if opt.Misses != 1 || opt.Hits != 2 || opt.Entries != 1 {
		t.Errorf("optimal stats = %+v", opt)
	}
	if runs := OptimalRuns(); runs != 1 {
		t.Errorf("OptimalRuns = %d, want 1", runs)
	}
	if tile.Misses != 1 || tile.Hits != 1 || tile.Entries != 1 {
		t.Errorf("tile stats = %+v", tile)
	}
	ResetCaches()
	opt, tile, decomp, sizes := CacheStats()
	if opt != (memo.Stats{}) || tile != (memo.Stats{}) || decomp != (memo.Stats{}) || sizes != (memo.Stats{}) {
		t.Errorf("stats after reset: opt=%+v tile=%+v decomp=%+v sizes=%+v", opt, tile, decomp, sizes)
	}
	if runs := OptimalRuns(); runs != 0 {
		t.Errorf("OptimalRuns after reset = %d", runs)
	}
}

func TestCachesAreConcurrencySafe(t *testing.T) {
	p, c, par := cacheFixtures()
	want := optimal(t, p, c, par)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary params slightly so goroutines mix hits and misses.
			pp := p
			pp.TileW = 1 + i%5
			optimalCached(t, pp, c, par)
			TileAsAuthBlockCached(pp, c, par)
			if got := optimalCached(t, p, c, par); got != want {
				t.Errorf("concurrent cached result differs")
			}
		}(i)
	}
	wg.Wait()
}

// TestResultMemosBounded: the optimal and tile-as-AuthBlock memos hold at
// most resultCapacity grid pairs however many distinct ones a daemon
// serves, the overflow counted as evictions.
func TestResultMemosBounded(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	const n = resultCapacity
	p, c, par := cacheFixtures()
	for i := 0; i < resultCapacity+n; i++ {
		k := cacheKey{p: p, c: c, par: par}
		k.p.C = i
		if _, err := optMemo.Do(context.Background(), k, func() (Result, error) { return Result{}, nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := tileMemo.Do(context.Background(), k, func() (tileEntry, error) { return tileEntry{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	opt, tile, _, _ := CacheStats()
	for _, m := range []struct {
		name string
		s    memo.Stats
	}{{"optimal", opt}, {"tile", tile}} {
		if m.s.Entries != resultCapacity || m.s.Evictions != n {
			t.Errorf("%s memo: %d entries, %d evictions; want %d and %d", m.name, m.s.Entries, m.s.Evictions, resultCapacity, n)
		}
	}
}
