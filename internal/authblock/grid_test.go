package authblock

import (
	"context"
	"math/rand"
	"testing"
)

func TestAxisDecomposeCoversIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		extent := 1 + rng.Intn(40)
		tile := 1 + rng.Intn(extent)
		count := 1 + rng.Intn(8)
		step := 1 + rng.Intn(6)
		win := 1 + rng.Intn(8)
		off := -rng.Intn(3)
		classes := axisDecompose(count, off, step, win, extent, tile)
		// The summed segment lengths must equal the summed clipped interval
		// lengths.
		var got int64
		for cls, n := range classes {
			if cls.lo < 0 || cls.hi <= cls.lo || cls.hi > cls.tdim || cls.tdim > tile {
				t.Fatalf("bad class %+v (tile %d)", cls, tile)
			}
			got += int64(cls.hi-cls.lo) * n
		}
		want := clippedSpanSum(count, off, step, win, extent)
		if got != want {
			t.Fatalf("decompose covers %d, want %d (extent=%d tile=%d count=%d step=%d win=%d off=%d)",
				got, want, extent, tile, count, step, win, off)
		}
	}
}

func TestHashWriteBitsExact(t *testing.T) {
	par := Params{WordBits: 8, HashBits: 64}
	// 10x10 tensor in 4x4 tiles: tiles are 4x4 (4), 4x2 (2), 2x4 (2), 2x2
	// (1). With u=5: ceil(16/5)=4, ceil(8/5)=2, ceil(8/5)=2, ceil(4/5)=1.
	p := ProducerGrid{C: 1, H: 10, W: 10, TileC: 1, TileH: 4, TileW: 4, WritesPerTile: 1}
	want := int64(4*4+2*2+2*2+1*1) * 64
	if got := p.HashWriteBits(5, par); got != want {
		t.Errorf("HashWriteBits = %d, want %d", got, want)
	}
	// WritesPerTile scales linearly.
	p.WritesPerTile = 3
	if got := p.HashWriteBits(5, par); got != 3*want {
		t.Errorf("scaled HashWriteBits = %d, want %d", got, 3*want)
	}
}

func TestWholeAndAligned(t *testing.T) {
	p := Whole(4, 9, 7)
	if p.NumTiles() != 1 {
		t.Fatalf("Whole has %d tiles", p.NumTiles())
	}
	a := p.Aligned()
	if a.NumTiles() != 1 || a.WinH != 9 || a.TileC != 4 {
		t.Fatalf("Aligned = %+v", a)
	}
	par := Params{WordBits: 8, HashBits: 64}
	costs := EvaluateCross(p, a, AlongQ, 4*9*7, par)
	if costs.RedundantBits != 0 || costs.HashReadBits != 64 || costs.HashWriteBits != 64 {
		t.Errorf("whole/aligned costs = %+v", costs)
	}
}

func TestOptimalConsistentWithSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	par := Params{WordBits: 8, HashBits: 64}
	for i := 0; i < 30; i++ {
		p := ProducerGrid{
			C: 1 + rng.Intn(4), H: 2 + rng.Intn(10), W: 2 + rng.Intn(10),
			WritesPerTile: 1,
		}
		p.TileC, p.TileH, p.TileW = p.C, 1+rng.Intn(p.H), 1+rng.Intn(p.W)
		c := ConsumerGrid{
			TileC: p.C, WinH: 1 + rng.Intn(p.H), WinW: 1 + rng.Intn(p.W),
			StepH: 1 + rng.Intn(4), StepW: 1 + rng.Intn(4),
			CountC: 1, CountH: 1 + rng.Intn(4), CountW: 1 + rng.Intn(4),
			FetchesPerTile: 1,
		}
		opt := optimal(t, p, c, par)
		// The optimum must not exceed any swept point of any orientation.
		flat := p.TileC * p.TileH * p.TileW
		for _, o := range Orientations {
			if skipOrientation(p, o) {
				continue
			}
			sweep, err := SweepCtx(context.Background(), p, c, o, flat, par)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sweep {
				if opt.Costs.Total() > r.Costs.Total() {
					t.Fatalf("optimal %d beaten by %v u=%d (%d): p=%+v c=%+v",
						opt.Costs.Total(), o, r.Assignment.U, r.Costs.Total(), p, c)
				}
			}
		}
	}
}

func TestCandidateSizesProperties(t *testing.T) {
	p := ProducerGrid{C: 8, H: 14, W: 14, TileC: 4, TileH: 7, TileW: 14, WritesPerTile: 1}
	c := p.Aligned()
	sizes := CandidateSizes(p, c)
	flat := p.TileC * p.TileH * p.TileW
	if sizes[0] != 1 || sizes[len(sizes)-1] != flat {
		t.Errorf("candidates must span [1, tile]: %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("candidates not strictly increasing")
		}
	}
	// Row length and its divisors must be present (the Fig. 9 local-minima
	// family).
	want := map[int]bool{p.TileW: true, p.TileH * p.TileW: true}
	for _, s := range sizes {
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("missing alignment candidates: %v", want)
	}
}

func TestCostsAccounting(t *testing.T) {
	a := Costs{HashWriteBits: 1, HashReadBits: 2, RedundantBits: 4, RehashBits: 8}
	if a.Total() != 15 || a.HashBitsTotal() != 3 {
		t.Errorf("totals: %+v", a)
	}
	b := a
	b.Add(a)
	if b.Total() != 30 {
		t.Errorf("Add: %+v", b)
	}
}

func TestValidation(t *testing.T) {
	good := ProducerGrid{C: 2, H: 3, W: 4, TileC: 1, TileH: 2, TileW: 2, WritesPerTile: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.TileW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero tile accepted")
	}
	bad = good
	bad.WritesPerTile = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero writes accepted")
	}
	goodC := good.Aligned()
	if err := goodC.Validate(); err != nil {
		t.Fatal(err)
	}
	badC := goodC
	badC.StepH = 0
	if err := badC.Validate(); err == nil {
		t.Error("zero step accepted")
	}
	badC = goodC
	badC.FetchesPerTile = 0
	if err := badC.Validate(); err == nil {
		t.Error("zero fetches accepted")
	}
}
