package authblock

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// optimal is OptimalCtx with a background context, failing the test on
// error.
func optimal(t testing.TB, p ProducerGrid, c ConsumerGrid, par Params) Result {
	t.Helper()
	res, err := OptimalCtx(context.Background(), p, c, par)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// equivGrids returns a deterministic matrix of producer/consumer pair
// geometries: hand-picked shapes covering aligned, halo, strided, clipped
// and degenerate axes, real schedule pairs with many channels, plus
// randomised pairs.
func equivGrids(t testing.TB) []struct {
	p ProducerGrid
	c ConsumerGrid
} {
	t.Helper()
	out := []struct {
		p ProducerGrid
		c ConsumerGrid
	}{
		{ // aligned, single tile
			p: Whole(4, 9, 7),
			c: Whole(4, 9, 7).Aligned(),
		},
		{ // paper-style halo consumer over row-tiled producer
			p: ProducerGrid{C: 64, H: 56, W: 56, TileC: 16, TileH: 14, TileW: 56, WritesPerTile: 1},
			c: ConsumerGrid{
				TileC: 16, WinH: 16, WinW: 58, StepH: 14, StepW: 56,
				OffH: -1, OffW: -1, CountC: 4, CountH: 4, CountW: 1,
				FetchesPerTile: 1,
			},
		},
		{ // clipped edge tiles, repeated fetches and spills
			p: ProducerGrid{C: 5, H: 10, W: 10, TileC: 2, TileH: 4, TileW: 3, WritesPerTile: 2},
			c: ConsumerGrid{
				TileC: 3, WinH: 3, WinW: 5, StepH: 2, StepW: 4,
				OffH: -1, OffW: 0, CountC: 2, CountH: 5, CountW: 3,
				FetchesPerTile: 3,
			},
		},
		{ // unit-height tiles (orientation degeneracy)
			p: ProducerGrid{C: 3, H: 6, W: 12, TileC: 1, TileH: 1, TileW: 12, WritesPerTile: 1},
			c: ConsumerGrid{
				TileC: 1, WinH: 2, WinW: 6, StepH: 1, StepW: 6,
				CountC: 3, CountH: 5, CountW: 2,
				FetchesPerTile: 1,
			},
		},
		// Pairs a Crypt-Opt-Cross schedule at arch.Base() searches. AlexNet
		// conv3 -> conv4: 384 channels, a one-row halo on each side.
		{
			p: ProducerGrid{C: 384, H: 13, W: 13, TileC: 56, TileH: 13, TileW: 13, WritesPerTile: 1},
			c: ConsumerGrid{
				TileC: 48, WinH: 15, WinW: 15, StepH: 13, StepW: 13,
				OffH: -1, OffW: -1, CountC: 8, CountH: 1, CountW: 1,
				FetchesPerTile: 1,
			},
		},
		{ // AlexNet conv4 -> conv5: partial-sum spills and repeated fetches
			p: ProducerGrid{C: 256, H: 13, W: 13, TileC: 14, TileH: 13, TileW: 13, WritesPerTile: 8},
			c: ConsumerGrid{
				TileC: 14, WinH: 15, WinW: 15, StepH: 13, StepW: 13,
				OffH: -1, OffW: -1, CountC: 19, CountH: 1, CountW: 1,
				FetchesPerTile: 11,
			},
		},
		{ // MobileNetV2 expansion -> depthwise: one channel per consumer tile
			p: ProducerGrid{C: 144, H: 56, W: 56, TileC: 144, TileH: 8, TileW: 14, WritesPerTile: 1},
			c: ConsumerGrid{
				TileC: 1, WinH: 58, WinW: 58, StepH: 56, StepW: 56,
				OffH: -1, OffW: -1, CountC: 144, CountH: 1, CountW: 1,
				FetchesPerTile: 1,
			},
		},
		{ // MobileNetV2 depthwise -> projection: one channel per producer tile
			p: ProducerGrid{C: 96, H: 56, W: 56, TileC: 1, TileH: 56, TileW: 56, WritesPerTile: 1},
			c: ConsumerGrid{
				TileC: 96, WinH: 8, WinW: 14, StepH: 8, StepW: 14,
				CountC: 1, CountH: 7, CountW: 4,
				FetchesPerTile: 1,
			},
		},
	}
	rng := rand.New(rand.NewSource(404))
	for i := 0; i < 20; i++ {
		p := ProducerGrid{
			C: 1 + rng.Intn(6), H: 2 + rng.Intn(12), W: 2 + rng.Intn(12),
			WritesPerTile: 1 + int64(rng.Intn(2)),
		}
		p.TileC, p.TileH, p.TileW = 1+rng.Intn(p.C), 1+rng.Intn(p.H), 1+rng.Intn(p.W)
		c := ConsumerGrid{
			TileC: 1 + rng.Intn(p.C), WinH: 1 + rng.Intn(p.H), WinW: 1 + rng.Intn(p.W),
			StepH: 1 + rng.Intn(4), StepW: 1 + rng.Intn(4),
			OffH: -rng.Intn(2), OffW: -rng.Intn(2),
			CountC: 1 + rng.Intn(3), CountH: 1 + rng.Intn(5), CountW: 1 + rng.Intn(5),
			FetchesPerTile: 1 + int64(rng.Intn(3)),
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			p ProducerGrid
			c ConsumerGrid
		}{p, c})
	}
	return out
}

// TestEvaluateCrossEquivalence is the decomposition-reuse proof obligation:
// the shared-decomposition EvaluateCross must return byte-identical Costs to
// the retained per-candidate reference across a grid x orientation x size
// matrix, and the per-orientation bound must never exceed them.
func TestEvaluateCrossEquivalence(t *testing.T) {
	par := DefaultParams()
	for gi, g := range equivGrids(t) {
		d := decompositionFor(g.p, g.c)
		flat := g.p.TileC * g.p.TileH * g.p.TileW
		sizes := append([]int{}, CandidateSizes(g.p, g.c)...)
		for u := 1; u <= flat+3; u += 1 + flat/17 {
			sizes = append(sizes, u)
		}
		for _, o := range Orientations {
			for _, u := range sizes {
				got := EvaluateCross(g.p, g.c, o, u, par)
				want := evaluateCrossReference(g.p, g.c, o, u, par)
				if got != want {
					t.Fatalf("grid %d %v u=%d: fast %+v != reference %+v", gi, o, u, got, want)
				}
				if lb := d.orientBound(o, u, got.HashWriteBits, g.c.FetchesPerTile, par, math.MaxInt64); lb > got.Total() {
					t.Fatalf("grid %d %v u=%d: bound %d exceeds cost %d", gi, o, u, lb, got.Total())
				}
			}
		}
	}
}

// TestOptimalMatchesReference: the reordered, seeded, bound-pruned search
// must select the identical assignment with identical costs as the original
// orientation-outer exhaustive search.
func TestOptimalMatchesReference(t *testing.T) {
	par := DefaultParams()
	for gi, g := range equivGrids(t) {
		got := optimal(t, g.p, g.c, par)
		want := OptimalReference(g.p, g.c, par)
		if got != want {
			t.Fatalf("grid %d: fast %+v != reference %+v (p=%+v c=%+v)", gi, got, want, g.p, g.c)
		}
	}
}

// TestTileBaselineMatchesReference: the decomposition-backed direct tile
// baseline must match the retained map-ranging reference bit for bit.
func TestTileBaselineMatchesReference(t *testing.T) {
	par := DefaultParams()
	for gi, g := range equivGrids(t) {
		got := tileBaselineDirect(g.p, g.c, par)
		want := tileBaselineDirectReference(g.p, g.c, par)
		if got != want {
			t.Fatalf("grid %d: fast %+v != reference %+v", gi, got, want)
		}
	}
}

// TestCandidateSizesMemoised: the memoised list must equal the unmemoised
// computation and be returned identically (same backing array) on repeat
// lookups.
func TestCandidateSizesMemoised(t *testing.T) {
	p := ProducerGrid{C: 8, H: 14, W: 14, TileC: 4, TileH: 7, TileW: 14, WritesPerTile: 1}
	c := p.Aligned()
	a := CandidateSizes(p, c)
	b := CandidateSizes(p, c)
	if &a[0] != &b[0] {
		t.Error("repeat CandidateSizes lookup rebuilt the list")
	}
	want := candidateSizes(p, c)
	if len(a) != len(want) {
		t.Fatalf("memoised %d sizes, want %d", len(a), len(want))
	}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("size %d: %d != %d", i, a[i], want[i])
		}
	}
}

// BenchmarkAuthBlockOptimal measures one cold-cache optimal-assignment
// search (decomposition, size and result memos all dropped each iteration)
// for a realistic cross-layer pair geometry; the Reference variant measures
// the retained pre-batching search on the same geometry.
func BenchmarkAuthBlockOptimal(b *testing.B) {
	p := ProducerGrid{C: 64, H: 56, W: 56, TileC: 16, TileH: 14, TileW: 56, WritesPerTile: 1}
	c := ConsumerGrid{
		TileC: 16, WinH: 16, WinW: 58, StepH: 14, StepW: 56,
		OffH: -1, OffW: -1, CountC: 4, CountH: 4, CountW: 1,
		FetchesPerTile: 1,
	}
	par := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetCaches()
		optimal(b, p, c, par)
	}
}

func BenchmarkAuthBlockOptimalReference(b *testing.B) {
	p := ProducerGrid{C: 64, H: 56, W: 56, TileC: 16, TileH: 14, TileW: 56, WritesPerTile: 1}
	c := ConsumerGrid{
		TileC: 16, WinH: 16, WinW: 58, StepH: 14, StepW: 56,
		OffH: -1, OffW: -1, CountC: 4, CountH: 4, CountW: 1,
		FetchesPerTile: 1,
	}
	par := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		OptimalReference(p, c, par)
	}
}
