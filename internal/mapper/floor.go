// The exported per-layer search floor: a lower bound on the cost of any
// candidate SearchCtx can return, computed from the guided search's
// per-dimension bound tables without walking a single tiling lattice point.
// The DSE coordinator's dominance pruning (internal/dse/bounds.go) is built
// on it: a design point whose summed layer floors already exceed the Pareto
// front can be skipped without running the full scheduler.

package mapper

import "secureloop/internal/workload"

// SearchLowerBound returns a lower bound on the scheduling cycles of the
// best candidate SearchCtx can return for req, on either search path
// (exhaustive or guided) and at any TopK.
//
// The bound is the minimum over all RF-feasible spatial choices of the
// choice's optimistic lattice bound (guidedPart.minLB: the product of
// per-axis minimum temporal contributions, clamped to the all-data-crosses-
// once traffic floor), additionally min'd with the degenerate fallback
// schedule's exact cost — the candidate the search returns when no tiling
// is capacity-feasible. Every returned candidate is either a lattice point
// of some feasible spatial choice or the fallback itself, so the minimum
// over both sources never exceeds the best candidate as long as each
// choice's minLB holds.
//
// It does not hold when the layer's stride exceeds its filter extent. The
// traffic floor is Layer.TotalVolume(), which counts every input row, while
// the cost model fetches only the rows a window touches; the floor, and
// with it this bound, can then exceed the cost of candidates the search
// returns. On ResNet-18's layer2.0.downsample (1×1, stride 2) at a 14×12 PE
// array, 32 kB buffer and 30/7 B/cycle, the bound is 141000 cycles and the
// exhaustive search returns a 97485-cycle schedule. DESIGN.md §12 has the
// consequences.
//
// The cost here is step-1 scheduling cycles (model.SchedulingCycles under
// the request's effective bandwidth); the scheduled layer's final
// Stats.Cycles is never smaller (DESIGN.md §14 gives the argument), so the
// bound carries over to whole-network totals wherever it holds per layer.
//
// Like the search itself, the bound arithmetic uses the mapping package's
// checked multiplies and may panic on pathological layer shapes; callers on
// untrusted inputs should guard with obs.Guard and treat a panic as "no
// usable bound".
func SearchLowerBound(req Request) int64 {
	minTraffic := trafficFloor(req)
	lb := fallbackCandidates(req)[0].Cycles
	for _, sp := range spatialChoices(req.Layer, req.PEsX, req.PEsY) {
		g := newGuidedPart(req, sp, minTraffic)
		if g == nil {
			continue
		}
		if g.minLB < lb {
			lb = g.minLB
		}
	}
	// Every source above already respects the traffic floor; the clamp
	// restates the invariant so the floor survives future refactors.
	if lb < minTraffic {
		lb = minTraffic
	}
	return lb
}

// trafficFloor is the tiling-independent traffic lower bound every search
// path prunes and clamps against: the cycles to move every element of the
// layer's tensors across the chip boundary once at the effective
// bandwidth. It counts every input row, so it overshoots on layers whose
// stride exceeds the filter extent (see SearchLowerBound and floorHolds).
func trafficFloor(req Request) int64 {
	l := req.Layer
	return int64(float64(l.TotalVolume()*int64(l.WordBits)) / 8 / req.EffectiveBytesPerCycle)
}

// floorHolds reports whether trafficFloor is a true lower bound on every
// candidate of the layer. The tiles of an output axis fetch windows of
// (extent-1)×stride + filter input rows each; while the stride is at most
// the filter extent, neighbouring windows overlap or touch, so together
// they cover every input row the floor counts. A larger stride leaves gaps
// between windows that the cost model never fetches.
func floorHolds(l *workload.Layer) bool {
	return l.StrideH <= l.R && l.StrideW <= l.S
}
