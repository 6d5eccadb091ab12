package authblock

import (
	"fmt"

	"secureloop/internal/num"
)

// ProducerGrid describes how a shared tensor (one layer's ofmap) is
// partitioned into the producer's DRAM tiles. AuthBlocks are laid within
// these tiles, because hashes are computed as each tile is written off-chip
// (Section 4.2: "if tile_i is the ofmap tile, this will be a natural
// scenario as hashes will be computed as the ofmap is generated").
type ProducerGrid struct {
	// C, H, W are the tensor extents: channels (the producer's M), rows
	// (P), columns (Q).
	C, H, W int
	// TileC, TileH, TileW are the tile extents; edge tiles clip.
	TileC, TileH, TileW int
	// WritesPerTile is how many times each tile crosses off-chip while
	// being produced (partial-sum spills).
	WritesPerTile int64
}

// Whole returns a producer grid with a single tile covering the tensor —
// the organisation used for segment-source tensors (network inputs,
// pooling outputs) whose AuthBlocks the host provisions freely.
func Whole(c, h, w int) ProducerGrid {
	return ProducerGrid{C: c, H: h, W: w, TileC: c, TileH: h, TileW: w, WritesPerTile: 1}
}

// Counts returns the tile counts per axis.
func (p ProducerGrid) Counts() (nc, nh, nw int) {
	return num.CeilDiv(p.C, p.TileC), num.CeilDiv(p.H, p.TileH), num.CeilDiv(p.W, p.TileW)
}

// NumTiles returns the total tile count.
func (p ProducerGrid) NumTiles() int64 {
	nc, nh, nw := p.Counts()
	return int64(nc) * int64(nh) * int64(nw)
}

// The modelled domain's magnitudes (DESIGN §15): every grid extent,
// window, step, offset and count is at most maxGridExtent in magnitude,
// and a producer tile holds at most maxTileElems elements, so the
// divisor scans over a tile take at most 2^16 steps.
const (
	maxGridExtent = 1 << 20
	maxTileElems  = 1 << 32
)

// Validate reports whether the grid is well-formed.
func (p ProducerGrid) Validate() error {
	if p.C <= 0 || p.H <= 0 || p.W <= 0 {
		return fmt.Errorf("authblock: producer tensor %dx%dx%d must be positive", p.C, p.H, p.W)
	}
	if p.TileC <= 0 || p.TileH <= 0 || p.TileW <= 0 {
		return fmt.Errorf("authblock: producer tile %dx%dx%d must be positive", p.TileC, p.TileH, p.TileW)
	}
	if max(p.C, p.H, p.W, p.TileC, p.TileH, p.TileW) > maxGridExtent {
		return fmt.Errorf("authblock: a producer extent exceeds 2^20")
	}
	if int64(p.TileC)*int64(p.TileH)*int64(p.TileW) > maxTileElems {
		return fmt.Errorf("authblock: producer tile %dx%dx%d exceeds 2^32 elements", p.TileC, p.TileH, p.TileW)
	}
	if p.WritesPerTile < 1 {
		return fmt.Errorf("authblock: WritesPerTile must be >= 1")
	}
	return nil
}

// ConsumerGrid describes how the next layer's mapping reads the shared
// tensor as its ifmap: channel tiles plus spatial convolution windows that
// step by Step but extend over Win (overlapping when Win > Step — the halo
// case), clipped to the tensor (padding is generated on chip).
type ConsumerGrid struct {
	// TileC is the channels per consumer tile.
	TileC int
	// WinH, WinW are the window extents; StepH, StepW the strides between
	// window origins; OffH, OffW the origin of window (0,0) (negative when
	// the consumer pads).
	WinH, WinW   int
	StepH, StepW int
	OffH, OffW   int
	// CountC, CountH, CountW are the tile counts per axis.
	CountC, CountH, CountW int
	// FetchesPerTile is how many times each tile is re-read from DRAM.
	FetchesPerTile int64
}

// NumTiles returns the total consumer tile count.
func (c ConsumerGrid) NumTiles() int64 {
	return int64(c.CountC) * int64(c.CountH) * int64(c.CountW)
}

// Aligned returns a consumer grid that reads the producer's tiles exactly
// (used for segment-sink tensors consumed sequentially downstream).
func (p ProducerGrid) Aligned() ConsumerGrid {
	nc, nh, nw := p.Counts()
	return ConsumerGrid{
		TileC: p.TileC,
		WinH:  p.TileH, WinW: p.TileW,
		StepH: p.TileH, StepW: p.TileW,
		CountC: nc, CountH: nh, CountW: nw,
		FetchesPerTile: 1,
	}
}

// Validate reports whether the grid is well-formed.
func (c ConsumerGrid) Validate() error {
	if c.TileC <= 0 || c.WinH <= 0 || c.WinW <= 0 {
		return fmt.Errorf("authblock: consumer tile %dx%dx%d must be positive", c.TileC, c.WinH, c.WinW)
	}
	if c.StepH <= 0 || c.StepW <= 0 {
		return fmt.Errorf("authblock: consumer steps must be positive")
	}
	if c.CountC <= 0 || c.CountH <= 0 || c.CountW <= 0 {
		return fmt.Errorf("authblock: consumer counts must be positive")
	}
	if max(c.TileC, c.WinH, c.WinW, c.StepH, c.StepW, c.CountC, c.CountH, c.CountW) > maxGridExtent ||
		c.OffH < -maxGridExtent || c.OffH > maxGridExtent || c.OffW < -maxGridExtent || c.OffW > maxGridExtent {
		return fmt.Errorf("authblock: a consumer window, step, offset or count exceeds 2^20")
	}
	if c.FetchesPerTile < 1 {
		return fmt.Errorf("authblock: FetchesPerTile must be >= 1")
	}
	return nil
}

// maxAxisSegments caps the window-tile segments decomposing one axis walks,
// maxPairClasses the classes of a pair's decomposition, each of which the
// search evaluates at every candidate size, and maxSlabWork the slabs one
// evaluation walks over all classes (DESIGN §15).
const (
	maxAxisSegments = 1 << 20
	maxPairClasses  = 1 << 16
	maxSlabWork     = 1 << 22
)

// ValidatePair validates both grids, then bounds the pair's consumer-class
// decomposition before it is computed. On one axis a window meets at most
// ceil(win/tile)+1 producer tiles, and no more than the axis has, so count
// times that bounds the segments axisDecompose walks. The axis's distinct
// classes are at most those segments, and at most 6*min(tile, extent):
// every class is (0, hi, tdim), (lo, tdim, tdim) or (lo, lo+win, tdim), and
// tdim takes at most two values, each at most min(tile, extent). The
// decomposition is the cross product of the three axes' classes. One
// evaluation walks at most one slab per element of a box's slowest axis
// in every class (CountBoxBlocks), and that axis is the channel axis or,
// flattened along channels, the row axis, so the class bound times the
// longer of the two tile extents bounds the work between two polls of the
// search's context.
func ValidatePair(p ProducerGrid, c ConsumerGrid) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := c.Validate(); err != nil {
		return err
	}
	classes := int64(1)
	for _, a := range [3][4]int{
		{c.CountC, c.TileC, p.C, p.TileC},
		{c.CountH, c.WinH, p.H, p.TileH},
		{c.CountW, c.WinW, p.W, p.TileW},
	} {
		count, win, extent, tile := a[0], a[1], a[2], a[3]
		segs := int64(count) * int64(min(num.CeilDiv(win, tile)+1, num.CeilDiv(extent, tile)))
		if segs > maxAxisSegments {
			return fmt.Errorf("authblock: the consumer windows meet more than 2^20 producer tile segments on one axis")
		}
		n := min(segs, 6*int64(min(tile, extent)))
		if n > maxPairClasses/classes {
			return fmt.Errorf("authblock: the pair may decompose into more than 2^16 classes")
		}
		classes *= n
	}
	if classes*int64(max(min(p.TileC, p.C), min(p.TileH, p.H))) > maxSlabWork {
		return fmt.Errorf("authblock: one candidate evaluation may walk more than 2^22 slabs")
	}
	return nil
}

// Params carries the datatype widths of the cost model.
type Params struct {
	// WordBits is the element width.
	WordBits int
	// HashBits is the stored authentication-tag width (the paper's hashes;
	// 64-bit truncated GCM tags by default).
	HashBits int
}

// DefaultParams returns 8-bit words with 64-bit tags.
func DefaultParams() Params { return Params{WordBits: 8, HashBits: 64} }

// Costs is the extra off-chip traffic of an AuthBlock regime, in bits,
// matching the Figure 11b breakdown.
type Costs struct {
	// HashWriteBits: tags written when the producer generates the tensor.
	HashWriteBits int64
	// HashReadBits: tags fetched alongside consumer reads.
	HashReadBits int64
	// RedundantBits: data fetched only because it shares an AuthBlock with
	// needed data.
	RedundantBits int64
	// RehashBits: traffic of explicit rehash passes (read + decrypt +
	// re-hash + write), including their tag traffic.
	RehashBits int64
}

// Total returns all extra bits.
func (c Costs) Total() int64 {
	return c.HashWriteBits + c.HashReadBits + c.RedundantBits + c.RehashBits
}

// HashBitsTotal returns hash reads plus writes.
func (c Costs) HashBitsTotal() int64 { return c.HashWriteBits + c.HashReadBits }

// Add accumulates.
func (c *Costs) Add(o Costs) {
	c.HashWriteBits += o.HashWriteBits
	c.HashReadBits += o.HashReadBits
	c.RedundantBits += o.RedundantBits
	c.RehashBits += o.RehashBits
}

// axisClass is a per-axis overlap segment: the local interval [lo, hi)
// within a producer tile whose extent on this axis is tdim.
type axisClass struct {
	lo, hi, tdim int
}

// axisDecompose intersects every consumer interval on one axis with the
// producer tile boundaries, returning the distinct local segments and their
// multiplicities. interval i is [start(i), start(i)+win) clipped to
// [0, extent); producer tiles cut at multiples of tile.
func axisDecompose(count, off, step, win, extent, tile int) map[axisClass]int64 {
	out := make(map[axisClass]int64)
	for i := 0; i < count; i++ {
		lo := off + num.MulInt(i, step)
		hi := lo + win
		if lo < 0 {
			lo = 0
		}
		if hi > extent {
			hi = extent
		}
		if lo >= hi {
			continue
		}
		for x := lo; x < hi; {
			tIdx := x / tile
			tLo := num.MulInt(tIdx, tile)
			tHi := tLo + tile
			if tHi > extent {
				tHi = extent
			}
			segHi := hi
			if segHi > tHi {
				segHi = tHi
			}
			out[axisClass{lo: x - tLo, hi: segHi - tLo, tdim: tHi - tLo}]++
			x = segHi
		}
	}
	return out
}

// consumerClasses decomposes the consumer grid against the producer grid
// into per-axis class maps (channels, rows, columns).
func consumerClasses(p ProducerGrid, c ConsumerGrid) (ch, rows, cols map[axisClass]int64) {
	ch = axisDecompose(c.CountC, 0, c.TileC, c.TileC, p.C, p.TileC)
	rows = axisDecompose(c.CountH, c.OffH, c.StepH, c.WinH, p.H, p.TileH)
	cols = axisDecompose(c.CountW, c.OffW, c.StepW, c.WinW, p.W, p.TileW)
	return ch, rows, cols
}

// HashWriteBits returns the producer-side tag traffic for blocks of u
// elements: every tile stores ceil(tileElems/u) tags each time it is
// written.
func (p ProducerGrid) HashWriteBits(u int, par Params) int64 {
	var blocks int64
	forEachTileClass(p, func(tc, th, tw int, mult int64) {
		flat := int64(tc) * int64(th) * int64(tw)
		blocks += mult * num.CeilDiv64(flat, int64(u))
	})
	return blocks * p.WritesPerTile * int64(par.HashBits)
}

// forEachTileClass enumerates the distinct producer tile shapes (interior
// and clipped edge tiles) with multiplicities.
func forEachTileClass(p ProducerGrid, fn func(tc, th, tw int, mult int64)) {
	axis := func(extent, tile int) [][2]int { // (dim, count)
		full := extent / tile
		out := [][2]int{}
		if full > 0 {
			out = append(out, [2]int{tile, full})
		}
		if rem := extent % tile; rem > 0 {
			out = append(out, [2]int{rem, 1})
		}
		return out
	}
	for _, ac := range axis(p.C, p.TileC) {
		for _, ah := range axis(p.H, p.TileH) {
			for _, aw := range axis(p.W, p.TileW) {
				fn(ac[0], ah[0], aw[0], int64(ac[1])*int64(ah[1])*int64(aw[1]))
			}
		}
	}
}

// EvaluateCross computes the extra off-chip traffic when AuthBlocks of
// (orientation o, size u) are laid over the producer tiles and the consumer
// reads the tensor with its own tiling. This is the workhorse behind both
// the Figure 9 sweep and the optimal-assignment search. The consumer-class
// decomposition depends only on the pair, so it is fetched from the shared
// memo and reused across every (orientation, size) candidate; the result is
// bitwise-identical to evaluateCrossReference (equiv_test.go).
func EvaluateCross(p ProducerGrid, c ConsumerGrid, o Orientation, u int, par Params) Costs {
	d := decompositionFor(p, c)
	return d.evaluate(o, u, p.HashWriteBits(u, par), c.FetchesPerTile, par)
}

// TensorBits returns the tensor size in data bits.
func (p ProducerGrid) TensorBits(par Params) int64 {
	return int64(p.C) * int64(p.H) * int64(p.W) * int64(par.WordBits)
}

// consumerFootprintBits returns the total bits of all consumer tiles
// including halo duplication (overlapping windows counted repeatedly).
func consumerFootprintBits(p ProducerGrid, c ConsumerGrid, par Params) int64 {
	rowSum := clippedSpanSum(c.CountH, c.OffH, c.StepH, c.WinH, p.H)
	colSum := clippedSpanSum(c.CountW, c.OffW, c.StepW, c.WinW, p.W)
	chSum := clippedSpanSum(c.CountC, 0, c.TileC, c.TileC, p.C)
	// Tile volumes factor per axis, so the sum over all tiles is the
	// product of the per-axis clipped-length sums.
	return chSum * rowSum * colSum * int64(par.WordBits)
}

// clippedSpanSum sums the clipped interval lengths of an axis's windows.
func clippedSpanSum(count, off, step, win, extent int) int64 {
	var s int64
	for i := 0; i < count; i++ {
		lo := off + num.MulInt(i, step)
		hi := lo + win
		if lo < 0 {
			lo = 0
		}
		if hi > extent {
			hi = extent
		}
		if hi > lo {
			s += int64(hi - lo)
		}
	}
	return s
}
