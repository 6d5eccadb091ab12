package mapper

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"secureloop/internal/mapping"
	"secureloop/internal/memo"
)

// TestTopKCountsDistinctSignatures: repeat offers of one tiling signature
// must not make the pruning threshold report "full" — only distinct
// signatures count towards k.
func TestTopKCountsDistinctSignatures(t *testing.T) {
	mk := func(qTile int, cycles int64) Candidate {
		m := mapping.New()
		m.SetFactor(mapping.GLB, mapping.DimQ, qTile)
		return Candidate{Mapping: m, Cycles: cycles}
	}
	tk := newTopK(3)
	// Three offers of the SAME signature (permutation variants of one
	// tiling): k offers seen, but only one distinct signature.
	tk.offer(mk(1, 100))
	tk.offer(mk(1, 90))
	tk.offer(mk(1, 80))
	if _, full := tk.kthCycles(); full {
		t.Fatal("kthCycles reported full after one distinct signature")
	}
	// A worse candidate with a NEW signature must still be admitted.
	tk.offer(mk(2, 500))
	tk.offer(mk(4, 400))
	if _, full := tk.kthCycles(); !full {
		t.Fatal("kthCycles not full after 3 distinct signatures")
	}
	if kth, _ := tk.kthCycles(); kth != 500 {
		t.Fatalf("kth distinct cycles = %d, want 500", kth)
	}
	out := tk.sorted()
	if len(out) != 3 {
		t.Fatalf("sorted returned %d candidates, want 3", len(out))
	}
	if out[0].Cycles != 80 || out[1].Cycles != 400 || out[2].Cycles != 500 {
		t.Fatalf("sorted cycles = [%d %d %d]", out[0].Cycles, out[1].Cycles, out[2].Cycles)
	}
}

// TestTopKPruneKeepsBest: the map stays bounded near k and never loses the
// true top-k.
func TestTopKPruneKeepsBest(t *testing.T) {
	mk := func(qTile int, cycles int64) Candidate {
		m := mapping.New()
		m.SetFactor(mapping.GLB, mapping.DimQ, qTile)
		return Candidate{Mapping: m, Cycles: cycles}
	}
	tk := newTopK(2)
	for q := 1; q <= 100; q++ {
		tk.offer(mk(q, int64(1000-q))) // later signatures are better
	}
	if len(tk.best) > 8*tk.k {
		t.Fatalf("topK map grew to %d entries for k=%d", len(tk.best), tk.k)
	}
	out := tk.sorted()
	if len(out) != 2 || out[0].Cycles != 900 || out[1].Cycles != 901 {
		t.Fatalf("top-2 = %+v", out)
	}
}

func TestSearchCachedSingleflight(t *testing.T) {
	ResetCaches()
	l := benchLayer()
	req := Request{
		Layer: &l, PEsX: 14, PEsY: 12,
		GLBBits: 8 * 64 * 1024, RFBits: 8 * 512,
		EffectiveBytesPerCycle: 32,
		TopK:                   4,
	}
	const callers = 8
	results := make([][]Candidate, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := SearchCachedCtx(context.Background(), req)
			if err != nil {
				t.Error(err)
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	st, _, _, _ := CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if st.Hits+st.Shared != callers-1 {
		t.Errorf("hits+shared = %d, want %d", st.Hits+st.Shared, callers-1)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	// A second, sequential call is a plain hit.
	searchCached(t, req)
	if got, _, _, _ := CacheStats(); got.Hits != st.Hits+1 {
		t.Errorf("sequential re-request did not hit: %+v", got)
	}
}

func TestCacheStatsResets(t *testing.T) {
	l := benchLayer()
	searchCached(t, guidedRequest(benchRequest(&l), 0, true))
	SearchLowerBound(benchRequest(&l))
	ResetCaches()
	search, tile, warm, bound := CacheStats()
	if search != (memo.Stats{}) || tile != (memo.Stats{}) || warm != (memo.Stats{}) || bound != (memo.Stats{}) {
		t.Fatalf("stats after reset: search %+v, tile %+v, warm %+v, bound %+v", search, tile, warm, bound)
	}
}
