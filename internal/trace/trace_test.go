package trace

import (
	"context"
	"math/rand"
	"testing"

	"secureloop/internal/authblock"
)

func randGrids(rng *rand.Rand) (authblock.ProducerGrid, authblock.ConsumerGrid) {
	p := authblock.ProducerGrid{
		C: 1 + rng.Intn(8), H: 1 + rng.Intn(14), W: 1 + rng.Intn(14),
		WritesPerTile: 1 + int64(rng.Intn(2)),
	}
	p.TileC = 1 + rng.Intn(p.C)
	p.TileH = 1 + rng.Intn(p.H)
	p.TileW = 1 + rng.Intn(p.W)

	// Consumer: convolution-window reader with random stride/window/pad.
	stepH := 1 + rng.Intn(4)
	stepW := 1 + rng.Intn(4)
	winH := stepH + rng.Intn(3) // windows may exceed steps (halos)
	winW := stepW + rng.Intn(3)
	offH := -rng.Intn(2)
	offW := -rng.Intn(2)
	c := authblock.ConsumerGrid{
		TileC: 1 + rng.Intn(p.C),
		WinH:  winH, WinW: winW,
		StepH: stepH, StepW: stepW,
		OffH: offH, OffW: offW,
		FetchesPerTile: 1 + int64(rng.Intn(3)),
	}
	c.CountC = (p.C + c.TileC - 1) / c.TileC
	c.CountH = maxInt(1, (p.H-offH-winH)/stepH+1+rng.Intn(2))
	c.CountW = maxInt(1, (p.W-offW-winW)/stepW+1+rng.Intn(2))
	return p, c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestEvaluateCrossMatchesSimulation is the central cross-check of the
// repository: the analytic floor-sum counting of authblock.EvaluateCross
// must agree exactly with brute-force tile-trace simulation, for random
// producer tilings, consumer windows (with halos and padding) and AuthBlock
// assignments.
func TestEvaluateCrossMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	par := authblock.Params{WordBits: 8, HashBits: 64}
	for i := 0; i < 400; i++ {
		p, c := randGrids(rng)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		flat := p.TileC * p.TileH * p.TileW
		for trial := 0; trial < 4; trial++ {
			u := 1 + rng.Intn(flat+2)
			o := authblock.Orientations[rng.Intn(int(authblock.NumOrientations))]
			got := authblock.EvaluateCross(p, c, o, u, par)
			want := CrossCosts(p, c, o, u, par)
			if got != want {
				t.Fatalf("iter %d: p=%+v c=%+v o=%v u=%d:\n got %+v\nwant %+v", i, p, c, o, u, got, want)
			}
		}
	}
}

// TestTileBaselineDirectMatchesSimulation checks the baseline's direct
// (whole-tile fetch) arithmetic against enumeration.
func TestTileBaselineDirectMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	par := authblock.Params{WordBits: 8, HashBits: 64}
	for i := 0; i < 200; i++ {
		p, c := randGrids(rng)
		costs, rehashed := authblock.TileAsAuthBlock(p, c, par)
		if rehashed {
			if costs.RehashBits <= 0 {
				t.Fatalf("rehash chosen but RehashBits = %d", costs.RehashBits)
			}
			continue
		}
		// Direct path: simulate whole-producer-tile fetches.
		var hashReads, redundant int64
		eachConsumerRegion(p, c, func(c0, c1, r0, r1, w0, w1 int) {
			needed := int64(c1-c0) * int64(r1-r0) * int64(w1-w0)
			var covered int64
			forOverlaps(c0, c1, p.C, p.TileC, func(_, ctd, _, _ int) {
				forOverlaps(r0, r1, p.H, p.TileH, func(_, rtd, _, _ int) {
					forOverlaps(w0, w1, p.W, p.TileW, func(_, wtd, _, _ int) {
						hashReads++
						covered += int64(ctd) * int64(rtd) * int64(wtd)
					})
				})
			})
			redundant += covered - needed
		})
		want := authblock.Costs{
			HashWriteBits: p.NumTiles() * p.WritesPerTile * int64(par.HashBits),
			HashReadBits:  hashReads * c.FetchesPerTile * int64(par.HashBits),
			RedundantBits: redundant * c.FetchesPerTile * int64(par.WordBits),
		}
		if costs != want {
			t.Fatalf("iter %d: p=%+v c=%+v:\n got %+v\nwant %+v", i, p, c, costs, want)
		}
	}
}

// TestOptimalNeverWorseThanDirectBaseline: the searched assignment must
// never produce more extra traffic than the direct tile-as-an-AuthBlock
// strategy it generalises, because u = producer-tile size reproduces it
// exactly (one block per tile, edge tiles clipped). The baseline's *rehash*
// variant is a different mechanism the unified assignment deliberately
// avoids (Section 3.2.1) and can win on pathological synthetic overlaps, so
// it is not part of this invariant.
func TestOptimalNeverWorseThanDirectBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	par := authblock.Params{WordBits: 8, HashBits: 64}
	for i := 0; i < 120; i++ {
		p, c := randGrids(rng)
		opt, err := authblock.OptimalCtx(context.Background(), p, c, par)
		if err != nil {
			t.Fatal(err)
		}
		direct := authblock.EvaluateCross(p, c, authblock.AlongQ, p.TileC*p.TileH*p.TileW, par)
		if opt.Costs.Total() > direct.Total() {
			t.Fatalf("iter %d: optimal %d > direct baseline %d (p=%+v c=%+v, a=%+v)",
				i, opt.Costs.Total(), direct.Total(), p, c, opt.Assignment)
		}
	}
}

// TestAlignedConsumerZeroRedundant: when the consumer reads exactly the
// producer's tiles, tile-sized AuthBlocks yield zero redundant reads.
func TestAlignedConsumerZeroRedundant(t *testing.T) {
	par := authblock.Params{WordBits: 8, HashBits: 64}
	p := authblock.ProducerGrid{C: 8, H: 12, W: 10, TileC: 4, TileH: 6, TileW: 5, WritesPerTile: 1}
	c := p.Aligned()
	costs := authblock.EvaluateCross(p, c, authblock.AlongQ, 4*6*5, par)
	if costs.RedundantBits != 0 {
		t.Fatalf("aligned consumer has redundant bits: %+v", costs)
	}
	if costs.HashReadBits != p.NumTiles()*int64(par.HashBits) {
		t.Fatalf("aligned consumer hash reads: %+v", costs)
	}
}
