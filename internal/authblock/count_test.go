package authblock

import (
	"math/rand"
	"testing"
)

func TestFloorSumAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		n := int64(rng.Intn(50))
		m := int64(1 + rng.Intn(40))
		a := int64(rng.Intn(120) - 60)
		b := int64(rng.Intn(120) - 60)
		var want int64
		for j := int64(0); j < n; j++ {
			x := a*j + b
			want += floorDiv(x, m)
		}
		if got := floorSum(n, m, a, b); got != want {
			t.Fatalf("floorSum(%d,%d,%d,%d) = %d, want %d", n, m, a, b, got, want)
		}
	}
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func TestCountResiduesBelowAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		n := int64(rng.Intn(40))
		m := int64(1 + rng.Intn(30))
		a := int64(rng.Intn(60))
		b := int64(rng.Intn(60))
		tt := int64(rng.Intn(int(m) + 1))
		var want int64
		for j := int64(0); j < n; j++ {
			if (a*j+b)%m < tt {
				want++
			}
		}
		if got := countResiduesBelow(n, m, a, b, tt); got != want {
			t.Fatalf("countResiduesBelow(%d,%d,%d,%d,%d) = %d, want %d", n, m, a, b, tt, got, want)
		}
	}
}

func TestCountBoxBlocksPaperExample(t *testing.T) {
	// Figure 8/9 setup: a 30x30 producer tile (h=30, wi=30); the misaligned
	// consumer tile_j is the right 20 columns (wj=20). Horizontal u=10
	// aligns with the offset (wi-wj=10): zero redundant reads. Vertical
	// u=300 = h*(wi-wj): zero redundant reads (Section 4.2's optimum).
	box := Box{C0: 0, C1: 1, P0: 0, P1: 30, Q0: 10, Q1: 30}

	blocks, covered := CountBoxBlocks(1, 30, 30, box, AlongQ, 10)
	if covered != box.Volume() {
		t.Errorf("horizontal u=10: covered = %d, want %d (zero redundant)", covered, box.Volume())
	}
	if blocks != 60 {
		t.Errorf("horizontal u=10: blocks = %d, want 60", blocks)
	}

	blocks, covered = CountBoxBlocks(1, 30, 30, box, AlongP, 300)
	if covered != box.Volume() {
		t.Errorf("vertical u=300: covered = %d, want %d (zero redundant)", covered, box.Volume())
	}
	if blocks != 2 {
		t.Errorf("vertical u=300: blocks = %d, want 2", blocks)
	}

	// Horizontal u=1: every element has its own hash, no redundancy
	// (Figure 7c).
	blocks, covered = CountBoxBlocks(1, 30, 30, box, AlongQ, 1)
	if blocks != 600 || covered != 600 {
		t.Errorf("horizontal u=1: blocks=%d covered=%d, want 600/600", blocks, covered)
	}

	// Tile-as-AuthBlock along the producer's rows: taking u as the whole
	// tile forces fetching everything (Figure 7a/b).
	blocks, covered = CountBoxBlocks(1, 30, 30, box, AlongQ, 900)
	if blocks != 1 || covered != 900 {
		t.Errorf("u=tile: blocks=%d covered=%d, want 1/900", blocks, covered)
	}
}

func TestCountBoxBlocksMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		tc := 1 + rng.Intn(5)
		tp := 1 + rng.Intn(12)
		tq := 1 + rng.Intn(12)
		b := randomBox(rng, tc, tp, tq)
		o := Orientations[rng.Intn(int(NumOrientations))]
		u := 1 + rng.Intn(tc*tp*tq+5)
		gb, gc := CountBoxBlocks(tc, tp, tq, b, o, u)
		wb, wc := countBoxBlocksBrute(tc, tp, tq, b, o, u)
		if gb != wb || gc != wc {
			t.Fatalf("tile %dx%dx%d box %+v %v u=%d: got (%d,%d), want (%d,%d)",
				tc, tp, tq, b, o, u, gb, gc, wb, wc)
		}
	}
}

func randomBox(rng *rand.Rand, tc, tp, tq int) Box {
	span := func(n int) (int, int) {
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		return lo, hi
	}
	var b Box
	b.C0, b.C1 = span(tc)
	b.P0, b.P1 = span(tp)
	b.Q0, b.Q1 = span(tq)
	return b
}

func TestCountBoxBlocksInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		tc := 1 + rng.Intn(4)
		tp := 1 + rng.Intn(10)
		tq := 1 + rng.Intn(10)
		b := randomBox(rng, tc, tp, tq)
		o := Orientations[rng.Intn(int(NumOrientations))]
		u := 1 + rng.Intn(tc*tp*tq)
		blocks, covered := CountBoxBlocks(tc, tp, tq, b, o, u)
		flat := int64(tc) * int64(tp) * int64(tq)
		if covered < b.Volume() {
			t.Fatalf("covered %d < needed %d", covered, b.Volume())
		}
		if covered > flat {
			t.Fatalf("covered %d > tile %d", covered, flat)
		}
		if blocks < 1 {
			t.Fatalf("no blocks touched by non-empty box")
		}
		maxBlocks := (flat + int64(u) - 1) / int64(u)
		if blocks > maxBlocks {
			t.Fatalf("blocks %d > tile blocks %d", blocks, maxBlocks)
		}
		// u=1 never over-fetches.
		if u == 1 && covered != b.Volume() {
			t.Fatalf("u=1 covered %d != needed %d", covered, b.Volume())
		}
	}
}

func TestCountBoxBlocksWholeTile(t *testing.T) {
	// A box covering the whole tile touches every block and covers every
	// element, for any u and orientation.
	for _, dims := range [][3]int{{1, 7, 9}, {3, 5, 4}, {2, 2, 2}} {
		tc, tp, tq := dims[0], dims[1], dims[2]
		flat := int64(tc * tp * tq)
		b := Box{C1: tc, P1: tp, Q1: tq}
		for _, o := range Orientations {
			for u := 1; u <= int(flat)+1; u++ {
				blocks, covered := CountBoxBlocks(tc, tp, tq, b, o, u)
				if covered != flat {
					t.Fatalf("dims %v %v u=%d: covered %d != %d", dims, o, u, covered, flat)
				}
				if want := (flat + int64(u) - 1) / int64(u); blocks != want {
					t.Fatalf("dims %v %v u=%d: blocks %d != %d", dims, o, u, blocks, want)
				}
			}
		}
	}
}

// TestOrientBoundSound: boxBound never exceeds the exact block count or
// covered elements, over random boxes x every orientation x every block
// size up to past the tile's flat length.
func TestOrientBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := 0
	for i := 0; i < 2500; i++ {
		tc := 1 + rng.Intn(4)
		tp := 1 + rng.Intn(10)
		tq := 1 + rng.Intn(10)
		b := randomBox(rng, tc, tp, tq)
		for _, o := range Orientations {
			for u := 1; u <= tc*tp*tq+3; u++ {
				lb, lc := boxBound(tc, tp, tq, b, o, u)
				blocks, covered := CountBoxBlocks(tc, tp, tq, b, o, u)
				if lb > blocks || lc > covered {
					t.Fatalf("tile %dx%dx%d box %+v %v u=%d: bound (%d,%d) exceeds exact (%d,%d)",
						tc, tp, tq, b, o, u, lb, lc, blocks, covered)
				}
				cases++
			}
		}
	}
	if cases < 500000 {
		t.Fatalf("only %d cases", cases)
	}
}

func BenchmarkCountBoxBlocksAnalytic(b *testing.B) {
	box := Box{C0: 2, C1: 14, P0: 3, P1: 27, Q0: 5, Q1: 25}
	for i := 0; i < b.N; i++ {
		CountBoxBlocks(16, 30, 28, box, AlongQ, 37)
	}
}

func BenchmarkCountBoxBlocksBrute(b *testing.B) {
	box := Box{C0: 2, C1: 14, P0: 3, P1: 27, Q0: 5, Q1: 25}
	for i := 0; i < b.N; i++ {
		countBoxBlocksBrute(16, 30, 28, box, AlongQ, 37)
	}
}

// countBoxBlocksBrute is the enumeration oracle for CountBoxBlocks: it
// marks every touched block directly.
func countBoxBlocksBrute(tileC, tileP, tileQ int, b Box, o Orientation, u int) (blocks, covered int64) {
	dims, lo, hi := permute(tileC, tileP, tileQ, b, o)
	flatLen := int64(dims[0]) * int64(dims[1]) * int64(dims[2])
	touched := map[int64]bool{}
	for i0 := lo[0]; i0 < hi[0]; i0++ {
		for i1 := lo[1]; i1 < hi[1]; i1++ {
			for i2 := lo[2]; i2 < hi[2]; i2++ {
				flat := (int64(i0)*int64(dims[1])+int64(i1))*int64(dims[2]) + int64(i2)
				touched[flat/int64(u)] = true
			}
		}
	}
	for k := range touched {
		blocks++
		end := (k + 1) * int64(u)
		if end > flatLen {
			end = flatLen
		}
		covered += end - k*int64(u)
	}
	return blocks, covered
}
