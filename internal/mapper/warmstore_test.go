package mapper

import (
	"context"
	"testing"

	"secureloop/internal/mapping"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

func TestSnapTile(t *testing.T) {
	cands := []int{1, 3, 9, 16, 27}
	for _, tc := range []struct{ tile, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 3}, {8, 3}, {9, 9}, {15, 9},
		{16, 16}, {26, 16}, {27, 27}, {100, 27},
	} {
		if got := cands[snapIdx(cands, tc.tile)]; got != tc.want {
			t.Errorf("snapIdx(%d) picks %d, want %d", tc.tile, got, tc.want)
		}
	}
}

// TestWarmKeyCanonicalisation: design points that should share winners
// (different buffer capacities, same-power-of-two output extents,
// same-bucket bandwidths) must collapse onto one warm key, while
// structurally different shapes must not.
func TestWarmKeyCanonicalisation(t *testing.T) {
	l := benchLayer()
	base := benchRequest(&l)

	same := []Request{base, base}
	same[0].GLBBits *= 4 // capacity excluded from the key
	same[0].RFBits *= 2
	same[1].EffectiveBytesPerCycle = base.EffectiveBytesPerCycle * 1.5 // 64 -> 96 B/cycle: same log2 bucket
	k0 := warmKeyFor(base)
	for i, rq := range same {
		if k1 := warmKeyFor(rq); k1 != k0 {
			t.Errorf("case %d: equivalent request altered warm key: %+v vs %+v", i, k1, k0)
		}
	}

	lp := l
	lp.P, lp.Q = 24, 24 // 27 -> 24: same log2 bucket (16..31)
	rp := base
	rp.Layer = &lp
	if kp := warmKeyFor(rp); kp != k0 {
		t.Errorf("same-bucket P/Q change altered warm key: %+v vs %+v", kp, k0)
	}

	diff := []Request{base, base, base}
	lc := l
	lc.C++
	diff[0].Layer = &lc                                              // channel counts are exact
	diff[1].PEsX++                                                   // array shape is exact
	diff[2].EffectiveBytesPerCycle = base.EffectiveBytesPerCycle * 4 // different bucket
	for i, rq := range diff {
		if kd := warmKeyFor(rq); kd == k0 {
			t.Errorf("case %d: structurally different request shares warm key", i)
		}
	}
}

// TestWarmStoreBounded: the store must stay within warmCapacity keys no
// matter how many distinct shapes a sweep touches, with the overflow
// accounted as evictions.
func TestWarmStoreBounded(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	l := benchLayer()
	req := benchRequest(&l)
	m := mappingForSeedTest(t, req)
	out := []Candidate{{Mapping: m}}
	const puts = 2000
	for i := 0; i < puts; i++ {
		li := l
		li.C = 8 + i // distinct shape per put
		ri := req
		ri.Layer = &li
		warmPut(ri, out)
	}
	_, _, s, _ := CacheStats()
	if s.Stores != puts {
		t.Errorf("Stores = %d, want %d", s.Stores, puts)
	}
	if max := int64(warmCapacity); s.Entries > max {
		t.Errorf("Entries = %d exceeds bound %d", s.Entries, max)
	}
	if min := int64(puts - warmCapacity); s.Evictions < min {
		t.Errorf("Evictions = %d, want at least %d", s.Evictions, min)
	}
	if s.Entries+s.Evictions != puts {
		t.Errorf("Entries+Evictions = %d, want %d", s.Entries+s.Evictions, puts)
	}
}

// TestWarmKeyHashPinned: the warm store's shard hash is the FNV-1a fold
// the store has always used, so a key's shard, and with it the FIFO
// eviction order, is unchanged.
func TestWarmKeyHashPinned(t *testing.T) {
	fnv := func(k warmKey) uint64 {
		h := uint64(14695981039346656037)
		mix := func(v uint64) {
			h ^= v
			h *= 1099511628211
		}
		for _, v := range [...]int{
			k.c, k.m, k.r, k.s, int(k.p2), int(k.q2),
			k.strideH, k.strideW, k.wordBits, k.pesX, k.pesY, int(k.bw2),
		} {
			mix(uint64(v))
		}
		if k.depthwise {
			mix(1)
		}
		return h
	}
	l := benchLayer()
	base := warmKeyFor(benchRequest(&l))
	slow := base
	slow.bw2 = -3 // sub-1 B/cycle bandwidths bucket below zero
	dw := base
	dw.depthwise = true
	for i, k := range []warmKey{base, slow, dw, {}} {
		if got, want := hashWarmKey(k), fnv(k); got != want {
			t.Errorf("case %d: hashWarmKey = %#x, want %#x", i, got, want)
		}
	}
}

func mappingForSeedTest(t *testing.T, req Request) *mapping.Mapping {
	t.Helper()
	out, err := SearchCtx(context.Background(), guidedRequest(req, 0, false))
	if err != nil || len(out) == 0 {
		t.Fatalf("seed-test search failed: %v", err)
	}
	return out[0].Mapping
}

// TestWarmSeedRoundTrip: a stored winner's seed must match a spatial choice
// of a neighbouring request and reproduce the winner's tiling when the
// lattice is unchanged.
func TestWarmSeedRoundTrip(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	l := benchLayer()
	req := benchRequest(&l)
	out, err := SearchCtx(context.Background(), guidedRequest(req, 0, false))
	if err != nil || len(out) == 0 {
		t.Fatalf("search failed: %v", err)
	}
	warmPut(req, out)
	seeds := warmSeeds(req)
	if len(seeds) == 0 {
		t.Fatal("stored seeds not returned for the same shape")
	}
	sd := seeds[0]
	matched := false
	for _, sp := range spatialChoices(&l, req.PEsX, req.PEsY) {
		if sp.normKey() == sd.spatialKey() {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("seed spatial key %v matches no spatial choice", sd.spatialKey())
	}
	if got := seedFromMapping(out[0].Mapping); got != sd {
		t.Errorf("seed round trip mismatch: %+v vs %+v", got, sd)
	}
}

// TestGuidedWarmHitSeeds: a guided search at a neighbouring design point
// (different GLB capacity — same warm key, different exact-cache key) must
// pick up the stored winners as seeds, and still return the byte-identical
// exhaustive result.
func TestGuidedWarmHitSeeds(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	l := workload.AlexNet().Layer(3)
	var cold, warm obs.Tally
	req := guidedRequest(baseRequest(l), 0, true)
	req.Observe = &cold
	if _, err := SearchCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if s := cold.Counts(); s.WarmSeeds != 0 {
		t.Fatalf("cold search applied %d warm seeds", s.WarmSeeds)
	}
	neighbour := req
	neighbour.GLBBits *= 2
	neighbour.Observe = &warm
	got, err := SearchCtx(context.Background(), neighbour)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counts().WarmSeeds == 0 {
		t.Error("neighbouring search applied no warm seeds")
	}
	if _, _, warm, _ := CacheStats(); warm.Hits == 0 {
		t.Error("neighbouring search missed the warm store")
	}
	exReq := neighbour
	exReq.Opt = Options{}
	assertSameCandidates(t, "warm-seeded neighbour", got, searchReference(exReq))
}
