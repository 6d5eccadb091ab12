package authblock

import (
	"context"
	"sort"

	"secureloop/internal/memo"
	"secureloop/internal/num"
)

// The consumer-class decomposition of a (producer, consumer) grid pair —
// every distinct (channel, row, column) overlap box with its multiplicity —
// depends only on the pair, not on the AuthBlock orientation or size under
// evaluation. The optimal-assignment search evaluates hundreds of
// (orientation, size) candidates per pair, so the decomposition is computed
// once per pair, flattened into a sorted slice, and shared by EvaluateCross,
// SweepCtx, the optimal search and the tile baselines. evaluateCrossReference
// (reference_test.go) retains the per-candidate recomputation as the
// equivalence oracle.

// pairClass is one flattened consumer class: an overlap box inside a
// producer tile of shape (tc, tp, tq), occurring mult times across the
// consumer's tiles.
type pairClass struct {
	box        Box
	tc, tp, tq int
	// vol is box.Volume(), precomputed for evaluate and orientBound.
	vol int64
	// mult is how many consumer tiles produce this exact class.
	mult int64
}

// pairDecomposition is the complete consumer-class decomposition of one
// (producer, consumer) pair, in deterministic sorted order.
type pairDecomposition struct {
	classes []pairClass
}

// newPairDecomposition intersects the consumer's windows with the producer's
// tile boundaries on each axis and flattens the cross product of the per-axis
// classes into one sorted slice.
func newPairDecomposition(p ProducerGrid, c ConsumerGrid) *pairDecomposition {
	ch, rows, cols := consumerClasses(p, c)
	flatten := func(m map[axisClass]int64) []struct {
		axisClass
		n int64
	} {
		out := make([]struct {
			axisClass
			n int64
		}, 0, len(m))
		for cls, n := range m {
			out = append(out, struct {
				axisClass
				n int64
			}{cls, n})
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i].axisClass, out[j].axisClass
			if a.tdim != b.tdim {
				return a.tdim < b.tdim
			}
			if a.lo != b.lo {
				return a.lo < b.lo
			}
			return a.hi < b.hi
		})
		return out
	}
	chs, rcs, wcs := flatten(ch), flatten(rows), flatten(cols)
	d := &pairDecomposition{classes: make([]pairClass, 0, num.MulInt(num.MulInt(len(chs), len(rcs)), len(wcs)))}
	for _, cc := range chs {
		for _, rc := range rcs {
			for _, wc := range wcs {
				box := Box{C0: cc.lo, C1: cc.hi, P0: rc.lo, P1: rc.hi, Q0: wc.lo, Q1: wc.hi}
				d.classes = append(d.classes, pairClass{
					box: box,
					tc:  cc.tdim, tp: rc.tdim, tq: wc.tdim,
					vol:  box.Volume(),
					mult: cc.n * rc.n * wc.n,
				})
			}
		}
	}
	return d
}

// evaluate computes the cross-layer costs of (orientation o, size u) on the
// shared decomposition. hashWrite is the producer-side tag traffic at size u
// (hoisted out so the search computes it once per size, not once per
// orientation).
func (d *pairDecomposition) evaluate(o Orientation, u int, hashWrite, fetches int64, par Params) Costs {
	var hashReads, redundant int64
	for i := range d.classes {
		cl := &d.classes[i]
		blocks, covered := CountBoxBlocks(cl.tc, cl.tp, cl.tq, cl.box, o, u)
		hashReads += cl.mult * blocks
		redundant += cl.mult * (covered - cl.vol)
	}
	return Costs{
		HashWriteBits: hashWrite,
		HashReadBits:  hashReads * fetches * int64(par.HashBits),
		RedundantBits: redundant * fetches * int64(par.WordBits),
	}
}

// orientBound returns a lower bound on evaluate(o, u, ...).Total(): the
// hash writes plus, per class, boxBound's blocks as hash reads and its
// covered elements beyond the box as redundant reads. Every term is
// non-negative, so it stops summing once the partial sum exceeds limit and
// returns that partial sum, which still exceeds limit; pass math.MaxInt64
// for the full bound. O(classes), and no per-orientation state is stored.
func (d *pairDecomposition) orientBound(o Orientation, u int, hashWrite, fetches int64, par Params, limit int64) int64 {
	hashBits, wordBits := fetches*int64(par.HashBits), fetches*int64(par.WordBits)
	total := hashWrite
	for i := range d.classes {
		if total > limit {
			break
		}
		cl := &d.classes[i]
		blocks, covered := boxBound(cl.tc, cl.tp, cl.tq, cl.box, o, u)
		total += cl.mult * (blocks*hashBits + (covered-cl.vol)*wordBits)
	}
	return total
}

// tileDirect evaluates the tile-as-an-AuthBlock direct baseline on the
// shared decomposition: each consumer box fetches its whole producer tile.
func (d *pairDecomposition) tileDirect(p ProducerGrid, fetches int64, par Params) Costs {
	var hashReads, redundant int64
	for i := range d.classes {
		cl := &d.classes[i]
		tileVol := int64(cl.tc) * int64(cl.tp) * int64(cl.tq)
		hashReads += cl.mult
		redundant += cl.mult * (tileVol - cl.vol)
	}
	return Costs{
		HashWriteBits: p.NumTiles() * p.WritesPerTile * int64(par.HashBits),
		HashReadBits:  hashReads * fetches * int64(par.HashBits),
		RedundantBits: redundant * fetches * int64(par.WordBits),
	}
}

// decompKey identifies a (producer, consumer) pair in the decomposition memo.
type decompKey struct {
	p ProducerGrid
	c ConsumerGrid
}

// decompMemo memoises decompositions process-wide: the same grid pairs
// recur across candidate sizes, annealing moves and design-space sweeps.
// Bounded so a long sweep over generated networks cannot grow it without
// limit.
var decompMemo = memo.New[decompKey, *pairDecomposition](1024, hashDecompKey)

func hashDecompKey(k decompKey) uint64 {
	return memo.Hash(
		uint64(k.p.C), uint64(k.p.H), uint64(k.p.W),
		uint64(k.p.TileC), uint64(k.p.TileH), uint64(k.p.TileW), uint64(k.p.WritesPerTile),
		uint64(k.c.TileC), uint64(k.c.WinH), uint64(k.c.WinW),
		uint64(k.c.StepH), uint64(k.c.StepW), uint64(k.c.OffH), uint64(k.c.OffW),
		uint64(k.c.CountC), uint64(k.c.CountH), uint64(k.c.CountW), uint64(k.c.FetchesPerTile),
	)
}

// decompositionFor returns the memoised decomposition of the pair.
func decompositionFor(p ProducerGrid, c ConsumerGrid) *pairDecomposition {
	// The compute cannot fail and the background wait is never cancelled.
	d, _ := decompMemo.Do(context.Background(), decompKey{p: p, c: c}, func() (*pairDecomposition, error) {
		return newPairDecomposition(p, c), nil
	})
	return d
}

// sizeKey captures the only fields CandidateSizes reads.
type sizeKey struct {
	tileC, tileH, tileW int
	winH, winW          int
	stepH, stepW        int
}

// sizeMemo memoises the deduplicated candidate-size lists; callers must
// treat the returned slice as read-only. Bounded like decompMemo.
var sizeMemo = memo.New[sizeKey, []int](1024, func(k sizeKey) uint64 {
	return memo.Hash(
		uint64(k.tileC), uint64(k.tileH), uint64(k.tileW),
		uint64(k.winH), uint64(k.winW), uint64(k.stepH), uint64(k.stepW),
	)
})
