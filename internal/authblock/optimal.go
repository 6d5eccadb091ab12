package authblock

import (
	"context"
	"sort"

	"secureloop/internal/num"
)

// Assignment is one AuthBlock regime for a tensor: blocks of U elements in
// the given flattening orientation, laid over each producer tile.
type Assignment struct {
	Orientation Orientation
	// U is the block size in elements.
	U int
}

// Result couples an assignment with its evaluated costs.
type Result struct {
	Assignment Assignment
	Costs      Costs
}

// CandidateSizes proposes the block sizes worth evaluating for a
// producer/consumer pair: all small sizes, powers of two, divisors of the
// producer tile's row length and plane/flat sizes (where the Figure 9 local
// minima live — block boundaries that align with row or plane boundaries
// eliminate redundant reads periodically), and row-multiples tied to the
// per-axis misalignment offsets.
func CandidateSizes(p ProducerGrid, c ConsumerGrid) []int {
	key := sizeKey{
		tileC: p.TileC, tileH: p.TileH, tileW: p.TileW,
		winH: c.WinH, winW: c.WinW, stepH: c.StepH, stepW: c.StepW,
	}
	// The compute cannot fail and the background wait is never cancelled.
	v, _ := sizeMemo.Do(context.Background(), key, func() ([]int, error) {
		return candidateSizes(p, c), nil
	})
	return v
}

// candidateSizes is the unmemoised CandidateSizes.
func candidateSizes(p ProducerGrid, c ConsumerGrid) []int {
	flat := num.MulInt(num.MulInt(p.TileC, p.TileH), p.TileW)
	set := map[int]bool{1: true, flat: true}
	add := func(v int) {
		if v >= 1 && v <= flat {
			set[v] = true
		}
	}
	for v := 2; v <= 64 && v <= flat; v++ {
		add(v)
	}
	for v := 2; v <= flat; v *= 2 {
		add(v)
	}
	addDivisors := func(n int) {
		if n <= 0 {
			return
		}
		for d := 1; d <= n/d; d++ {
			if n%d == 0 {
				add(d)
				add(n / d)
			}
		}
	}
	addDivisors(p.TileW)
	addDivisors(num.MulInt(p.TileH, p.TileW))
	addDivisors(flat)
	// Misalignment-derived sizes: the paper's example shows zero-redundancy
	// points at factors of h*(wi-wj); offsets between consumer windows and
	// producer tile boundaries generate the analogous values here. rows maps
	// a (possibly negative) row count to whole rows of elements; non-positive
	// counts yield 0, which the off > 0 filter below discards.
	rows := func(h int) int {
		if h <= 0 {
			return 0
		}
		return num.MulInt(h, p.TileW)
	}
	for _, off := range []int{
		p.TileW - c.WinW, p.TileW - c.StepW, c.StepW, c.WinW,
		rows(p.TileH - c.WinH), rows(p.TileH - c.StepH),
		rows(c.StepH), rows(c.WinH),
	} {
		if off > 0 {
			add(off)
			addDivisors(off)
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// OptimalCtx searches orientations x candidate sizes for the assignment
// that minimises the total extra off-chip traffic (hash writes + hash reads
// + redundant reads), the paper's Section 4.2 objective. Ties break toward
// larger blocks (fewer tags to store).
//
// The search runs on the shared pair decomposition: the class structure is
// built once, the producer-side hash-write traffic is computed once per
// size (not once per orientation), and alignment-seeded candidates are
// evaluated first so the per-orientation lower bound
// (pairDecomposition.orientBound) can skip most of the remaining
// candidates before CountBoxBlocks runs on them. The bound charges each
// class the blocks and covered elements boxBound proves it must touch:
// runs closer than u merge into groups whose spans are covered whole, and
// a group of span g touches at least ceil(g/u) blocks of its own, so it
// adds a redundant-read term to the hash reads. A candidate is skipped
// only when its bound is strictly greater than the incumbent total; its
// actual total is then too, so exact ties are still evaluated.
//
// The update rule — strictly smaller total, or equal total with strictly
// larger block — selects the minimum of (total, -U, orientation order)
// whatever order candidates are visited in, because orientations are always
// visited in Orientations order within one size; re-evaluating a seed or
// skipping a candidate whose lower bound exceeds the incumbent total
// therefore cannot change the result. TestOptimalMatchesReference holds
// the proof obligation against the retained OptimalReference.
//
// The context is polled once per candidate size and before every
// evaluated candidate. On cancellation OptimalCtx returns the best
// assignment found so far together with ctx.Err(); callers must not treat
// the partial result as optimal.
func OptimalCtx(ctx context.Context, p ProducerGrid, c ConsumerGrid, par Params) (Result, error) {
	sizes := CandidateSizes(p, c)
	d := decompositionFor(p, c)
	best := Result{Assignment: Assignment{Orientation: AlongQ, U: 1}}
	first := true
	fetches := c.FetchesPerTile
	consider := func(u int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		hw := p.HashWriteBits(u, par)
		for _, o := range Orientations {
			if skipOrientation(p, o) {
				continue
			}
			if !first {
				if bestTotal := best.Costs.Total(); d.orientBound(o, u, hw, fetches, par, bestTotal) > bestTotal {
					continue
				}
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			costs := d.evaluate(o, u, hw, fetches, par)
			if first || costs.Total() < best.Costs.Total() ||
				(costs.Total() == best.Costs.Total() && u > best.Assignment.U) {
				best = Result{Assignment: Assignment{Orientation: o, U: u}, Costs: costs}
				first = false
			}
		}
		return nil
	}
	// Seeds: the Figure 9 local minima live where block boundaries align
	// with row, plane or tile boundaries. Evaluating those first gives the
	// lower bound a strong incumbent before the ascending scan begins.
	for _, seed := range []int{
		num.MulInt(num.MulInt(p.TileC, p.TileH), p.TileW),
		num.MulInt(p.TileH, p.TileW),
		p.TileW,
	} {
		for _, u := range sizes {
			if u == seed {
				if err := consider(u); err != nil {
					return best, err
				}
				break
			}
		}
	}
	for _, u := range sizes {
		if err := consider(u); err != nil {
			return best, err
		}
	}
	return best, nil
}

// skipOrientation prunes orientations that are degenerate for the tile
// shape (flattening along a unit dimension duplicates another orientation).
func skipOrientation(p ProducerGrid, o Orientation) bool {
	switch o {
	case AlongP:
		return p.TileH == 1 && p.TileW > 1 // same as AlongQ reordered
	case AlongC:
		return p.TileC == 1
	}
	return false
}

// SweepCtx evaluates every block size in [1, maxU] for one orientation,
// returning per-size costs — the Figure 9 visualisation. The context is
// polled before every block size; on cancellation the sizes evaluated so
// far are returned with ctx.Err().
func SweepCtx(ctx context.Context, p ProducerGrid, c ConsumerGrid, o Orientation, maxU int, par Params) ([]Result, error) {
	d := decompositionFor(p, c)
	out := make([]Result, 0, maxU)
	for u := 1; u <= maxU; u++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out = append(out, Result{
			Assignment: Assignment{Orientation: o, U: u},
			Costs:      d.evaluate(o, u, p.HashWriteBits(u, par), c.FetchesPerTile, par),
		})
	}
	return out, nil
}

// TileAsAuthBlock evaluates the prior-work baseline strategy (Section 3.2):
// one AuthBlock per producer tile. Cross-layer misalignment is then
// resolved by whichever is cheaper:
//
//   - direct: every consumer access fetches all producer tiles it overlaps
//     in full (Figure 4c's redundant reads), or
//   - rehash: one pass reads the whole tensor, re-assigns AuthBlocks to
//     match the consumer's tiles (duplicating halo data), and writes it
//     back (Section 3.2.1's workaround), after which consumer reads are
//     exact.
//
// The bool reports whether the rehash path was chosen.
func TileAsAuthBlock(p ProducerGrid, c ConsumerGrid, par Params) (Costs, bool) {
	direct := tileBaselineDirect(p, c, par)
	rehash := tileBaselineRehash(p, c, par)
	if rehash.Total() < direct.Total() {
		return rehash, true
	}
	return direct, false
}

// tileBaselineDirect counts whole-producer-tile fetches per consumer tile,
// on the shared pair decomposition.
func tileBaselineDirect(p ProducerGrid, c ConsumerGrid, par Params) Costs {
	return decompositionFor(p, c).tileDirect(p, c.FetchesPerTile, par)
}

// tileBaselineRehash charges a full reorganisation pass, after which every
// consumer tile is exactly one AuthBlock.
func tileBaselineRehash(p ProducerGrid, c ConsumerGrid, par Params) Costs {
	tensor := p.TensorBits(par)
	dup := consumerFootprintBits(p, c, par)
	oldTags := p.NumTiles() * int64(par.HashBits)
	newTags := c.NumTiles() * int64(par.HashBits)
	return Costs{
		HashWriteBits: p.NumTiles() * p.WritesPerTile * int64(par.HashBits),
		HashReadBits:  c.NumTiles() * c.FetchesPerTile * int64(par.HashBits),
		RehashBits:    tensor + dup + oldTags + newTags,
	}
}

// WeightCosts returns the tag traffic for a weight tensor: weight tiles
// never overlap and have no cross-layer consumer, so tile-as-an-AuthBlock
// is optimal for every strategy — one tag stored per tile and one fetched
// per tile read.
func WeightCosts(numTiles, fetchesPerTile int64, par Params) Costs {
	return Costs{
		HashWriteBits: 0, // weights are provisioned once by the host, off the critical path
		HashReadBits:  numTiles * fetchesPerTile * int64(par.HashBits),
	}
}

// SourceCosts returns the tag traffic for a segment-source ifmap (network
// input or post-processing output): the host or post-processing unit
// provisions AuthBlocks matching the consumer's tiles (duplicating halo
// data into both tiles when windows overlap), so consumer reads are exact
// and only tags travel.
func SourceCosts(c ConsumerGrid, par Params) Costs {
	return Costs{
		HashReadBits: c.NumTiles() * c.FetchesPerTile * int64(par.HashBits),
	}
}

// SinkCosts returns the tag traffic for a segment-sink ofmap (consumed by a
// separate post-processing step downstream): tags are written per producer
// tile; the downstream read is outside the segment's accounting.
func SinkCosts(p ProducerGrid, par Params) Costs {
	return Costs{
		HashWriteBits: p.NumTiles() * p.WritesPerTile * int64(par.HashBits),
	}
}
