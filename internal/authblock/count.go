package authblock

import (
	"fmt"

	"secureloop/internal/num"
)

// Orientation selects which tile dimension the flattened AuthBlock runs
// along fastest. For the paper's 2-D illustrations, AlongQ is "horizontal"
// (blocks run along tensor columns) and AlongP is "vertical" (blocks run
// along tensor rows). AlongC slices along the channel dimension.
type Orientation int

const (
	// AlongQ flattens (channel, row, column): horizontal blocks.
	AlongQ Orientation = iota
	// AlongP flattens (channel, column, row): vertical blocks.
	AlongP
	// AlongC flattens (row, column, channel): channel-direction blocks.
	AlongC

	// NumOrientations counts the orientations.
	NumOrientations
)

// Orientations lists all orientations.
var Orientations = [NumOrientations]Orientation{AlongQ, AlongP, AlongC}

// String names the orientation as in the paper's figures.
func (o Orientation) String() string {
	switch o {
	case AlongQ:
		return "horizontal"
	case AlongP:
		return "vertical"
	case AlongC:
		return "channel"
	}
	return "unknown"
}

// Box is an axis-aligned region inside a producer tile, in the tile's local
// coordinates: channels [C0,C1), rows [P0,P1), columns [Q0,Q1).
type Box struct {
	C0, C1 int
	P0, P1 int
	Q0, Q1 int
}

// Volume returns the element count of the box.
func (b Box) Volume() int64 {
	return int64(b.C1-b.C0) * int64(b.P1-b.P0) * int64(b.Q1-b.Q0)
}

// valid reports whether the box is non-empty and inside the tile.
func (b Box) valid(tc, tp, tq int) bool {
	return b.C0 >= 0 && b.C0 < b.C1 && b.C1 <= tc &&
		b.P0 >= 0 && b.P0 < b.P1 && b.P1 <= tp &&
		b.Q0 >= 0 && b.Q0 < b.Q1 && b.Q1 <= tq
}

// permute maps (tile dims, box) into flattening order (d0 slowest, d2
// fastest) for the orientation.
func permute(tileC, tileP, tileQ int, b Box, o Orientation) (dims [3]int, lo, hi [3]int) {
	switch o {
	case AlongQ:
		dims = [3]int{tileC, tileP, tileQ}
		lo = [3]int{b.C0, b.P0, b.Q0}
		hi = [3]int{b.C1, b.P1, b.Q1}
	case AlongP:
		dims = [3]int{tileC, tileQ, tileP}
		lo = [3]int{b.C0, b.Q0, b.P0}
		hi = [3]int{b.C1, b.Q1, b.P1}
	case AlongC:
		dims = [3]int{tileP, tileQ, tileC}
		lo = [3]int{b.P0, b.Q0, b.C0}
		hi = [3]int{b.P1, b.Q1, b.C1}
	default:
		panic(fmt.Sprintf("authblock: bad orientation %d", int(o)))
	}
	return dims, lo, hi
}

// CountBoxBlocks returns, for AuthBlocks of u elements laid over a producer
// tile of dims (tileC, tileP, tileQ) flattened in orientation o, the number
// of distinct blocks the box touches and the number of elements those
// blocks cover (clipping the tile's final partial block to the tile end).
// The box elements themselves are a subset of the covered elements, so the
// redundant-read count for fetching this box is covered - box.Volume().
//
// The computation runs the paper's congruence formulation: the box's rows
// in flattened space form nested arithmetic progressions of equal-length
// runs; block-boundary crossings are counted with floor-sums and the
// duplicate-block corrections with residue-window counting. Slab
// contributions repeat with period u/gcd(slabStride, u), so the cost is
// O(min(slabs, period) * log) rather than element enumeration.
func CountBoxBlocks(tileC, tileP, tileQ int, b Box, o Orientation, u int) (blocks, covered int64) {
	if u <= 0 {
		panic("authblock: block size must be positive")
	}
	if !b.valid(tileC, tileP, tileQ) {
		panic(fmt.Sprintf("authblock: box %+v invalid for tile %dx%dx%d", b, tileC, tileP, tileQ))
	}
	dims, lo, hi := permute(tileC, tileP, tileQ, b, o)
	d1, d2 := int64(dims[1]), int64(dims[2])
	flatLen := int64(dims[0]) * d1 * d2
	u64 := int64(u)

	runLen := int64(hi[2] - lo[2])
	j1 := int64(hi[1] - lo[1]) // runs per slab
	step := d1 * d2            // flat distance between consecutive slab bases
	n0 := int64(hi[0] - lo[0]) // slab count
	base0 := (int64(lo[0])*d1+int64(lo[1]))*d2 + int64(lo[2])
	// Flat offset of the box's last element, in the original dims (computed
	// before canonicalisation below rewrites the slab/run shape).
	maxFlat := (int64(hi[0]-1)*d1+int64(hi[1]-1))*d2 + int64(hi[2]) - 1

	// Canonicalise: a "slab" is any group of runs whose starts form one
	// arithmetic progression, and the whole box collapses to a single slab
	// whenever the per-slab progressions concatenate into one.
	if runLen == d2 {
		// Full fastest axis: each slab's runs are contiguous, so the slab is
		// one run of length j1*d2.
		runLen = j1 * d2
		j1 = 1
	}
	if j1 == 1 {
		// One run per slab: the slab bases are themselves a progression of
		// stride step.
		j1, d2, n0 = n0, step, 1
	} else if j1 == d1 {
		// Full middle axis: run starts are base0 + (j + k*d1)*d2 with
		// j + k*d1 contiguous in [0, n0*d1), one progression of stride d2.
		j1, n0 = n0*j1, 1
	}

	// The first slab has no predecessor inside the box, so no cross-slab
	// dedup applies.
	total := slabBlockCount(base0, u64, d2, runLen, j1, step, false)

	// Every later slab's contribution (including its dedup against the
	// previous slab) depends only on base mod u: floorSum and
	// countResiduesBelow shift by exactly n per +u in b, which cancels in
	// the differences, and both sides of the dedup equality grow by one per
	// +u in base. Bases advance by step per slab, so contributions repeat
	// with period p = u / gcd(step, u); when the box spans more slabs than
	// one period, one period of slab evaluations determines the whole sum.
	if rest := n0 - 1; rest > 0 {
		if p := u64 / gcd(step%u64, u64); p < rest {
			rem := rest % p
			var cycle, prefix int64
			for k := int64(1); k <= p; k++ {
				c := slabBlockCount(base0+k*step, u64, d2, runLen, j1, step, true)
				cycle += c
				if k <= rem {
					prefix += c
				}
			}
			total += (rest/p)*cycle + prefix
		} else {
			for k := int64(1); k <= rest; k++ {
				total += slabBlockCount(base0+k*step, u64, d2, runLen, j1, step, true)
			}
		}
	}

	covered = total * u64
	// The tile's final block may be partial; if the box touches it, the
	// coverage is clipped to the tile end.
	if rem := flatLen % u64; rem != 0 {
		lastBlock := flatLen / u64 // index of the partial block
		if maxFlat >= lastBlock*u64 {
			covered -= u64 - rem
		}
	}
	return total, covered
}

// slabBlockCount returns the number of distinct blocks one slab of the box
// contributes: the blocks its runs touch, minus (when dedup is set) the
// boundary block it may share with the preceding slab at base-step.
func slabBlockCount(base, u64, d2, runLen, j1, step int64, dedup bool) int64 {
	// Within the slab: runs start at base + j*d2, j in [0, j1), each of
	// length runLen. Distinct blocks touched by the slab:
	//   sum_j (floor((s_j+runLen-1)/u) - floor(s_j/u) + 1) - duplicates
	// where duplicates counts consecutive runs whose block ranges share
	// their boundary block. Ranges can overlap by at most one block
	// because runs are disjoint and ordered.
	sumLast := floorSum(j1, u64, d2, base+runLen-1)
	sumFirst := floorSum(j1, u64, d2, base)
	blocks := sumLast - sumFirst + j1

	// Duplicate j/j+1 boundary blocks: no multiple of u in
	// (s_j+runLen-1, s_j+d2], i.e. (s_j+runLen-1) mod u < u - g with
	// g = d2 - runLen + 1.
	g := d2 - runLen + 1
	if g <= u64 && j1 > 1 {
		blocks -= countResiduesBelow(j1-1, u64, d2, base+runLen-1, u64-g)
	}

	// Cross-slab duplicate: this slab's first block vs the last block of the
	// preceding slab, whose final element sits at base-step+(j1-1)*d2+runLen-1
	// (floor((x-1)/u) == ceil(x/u)-1 for x > 0).
	if dedup && base/u64 == num.CeilDiv64(base-step+(j1-1)*d2+runLen, u64)-1 {
		blocks--
	}
	return blocks
}

// boxBound returns lower bounds on CountBoxBlocks' blocks and covered
// elements in O(1). In flattened order the box is equal-length runs,
// consecutive runs of a slab a row gap apart and consecutive slabs a
// (larger) slab gap apart. A gap shorter than u holds at most one block
// boundary, and no whole block fits in it (the tile's clipped final block
// lies past every gap), so it is covered whole and its two runs fall into
// one group. Runs a gap of u or more apart are more than u-1 elements
// apart, so they share no block. A group spanning g contiguous elements
// therefore touches at least ceil(g/u) blocks no other group touches, and
// the box covers at least every group's span and at least blocks*u
// elements less the clipped part of the tile's final block when the box
// reaches it.
func boxBound(tileC, tileP, tileQ int, b Box, o Orientation, u int) (blocks, covered int64) {
	dims, lo, hi := permute(tileC, tileP, tileQ, b, o)
	d1, d2 := int64(dims[1]), int64(dims[2])
	u64 := int64(u)
	runLen := int64(hi[2] - lo[2])
	runs := int64(hi[1] - lo[1]) // per slab
	slabs := int64(hi[0] - lo[0])
	rowGap := d2 - runLen
	slabGap := (d1-runs)*d2 + rowGap
	groups, span := slabs*runs, runLen // every run its own group
	switch {
	case slabGap < u64: // the whole box is one group
		groups, span = 1, ((slabs-1)*d1+runs-1)*d2+runLen
	case rowGap < u64: // each slab is one group
		groups, span = slabs, (runs-1)*d2+runLen
	}
	blocks = groups * num.CeilDiv64(span, u64)
	covered = blocks * u64
	flatLen := int64(dims[0]) * d1 * d2
	maxFlat := (int64(hi[0]-1)*d1+int64(hi[1]-1))*d2 + int64(hi[2]) - 1
	if rem := flatLen % u64; rem != 0 && maxFlat >= flatLen-rem {
		covered -= u64 - rem
	}
	return blocks, max(covered, groups*span)
}
