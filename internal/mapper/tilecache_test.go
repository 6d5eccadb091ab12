package mapper

import (
	"sync"
	"testing"
)

// TestTileCacheHitsAndIdentity: repeated lookups must hit and return the
// same canonical slice (first-writer-wins), and the content must match a
// fresh computation.
func TestTileCacheHitsAndIdentity(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	a := tileCandidates(96)
	b := tileCandidates(96)
	if &a[0] != &b[0] {
		t.Error("repeated lookup returned a different slice")
	}
	want := computeTileCandidates(96)
	if len(a) != len(want) {
		t.Fatalf("cached candidates %v, computed %v", a, want)
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("cached candidates %v, computed %v", a, want)
		}
	}
	_, s, _, _ := CacheStats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats after one miss + one hit: %+v", s)
	}
}

// TestTileCacheBounded: the cache must stay within tileCapacity entries
// however many distinct bounds a sweep touches, with the overflow
// accounted as evictions.
func TestTileCacheBounded(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	const lookups = 4000
	for b := 1; b <= lookups; b++ {
		if got := tileCandidates(b); len(got) == 0 {
			t.Fatalf("no candidates for bound %d", b)
		}
	}
	_, s, _, _ := CacheStats()
	if s.Misses != lookups {
		t.Errorf("Misses = %d, want %d", s.Misses, lookups)
	}
	if max := int64(tileCapacity); s.Entries > max {
		t.Errorf("Entries = %d exceeds bound %d", s.Entries, max)
	}
	if s.Entries+s.Evictions != lookups {
		t.Errorf("Entries+Evictions = %d, want %d", s.Entries+s.Evictions, lookups)
	}
	// Evicted bounds recompute correctly (bound 1 was evicted long ago —
	// sequential fill is FIFO per shard).
	if got := tileCandidates(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("recomputed candidates for bound 1: %v", got)
	}
}

// TestTileCacheConcurrent hammers one bound from many goroutines under
// -race; every caller must see the identical canonical slice.
func TestTileCacheConcurrent(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	canonical := tileCandidates(27)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := tileCandidates(27); &got[0] != &canonical[0] {
					t.Error("concurrent lookup returned a non-canonical slice")
					return
				}
			}
		}()
	}
	wg.Wait()
}
