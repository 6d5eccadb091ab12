// The tiling-independent traffic floors, and the exported per-layer search
// floor built on them: a lower bound on the cost of any candidate SearchCtx
// can return, computed from the best-first search's per-dimension bound
// tables without walking a single tiling lattice point. The DSE
// coordinator's dominance pruning (internal/dse/bounds.go) is built on it:
// a design point whose summed layer floors already exceed the Pareto front
// can be skipped without running the full scheduler.

package mapper

import (
	"context"

	"secureloop/internal/workload"
)

// SearchLowerBound returns a lower bound on the scheduling cycles of the
// best candidate SearchCtx can return for req, in either mode, at any TopK
// and at any buffer capacity. It never reads req.Opt, req.TopK or
// req.GLBBits, so the process-wide bound memo (cache.go) keys it without
// them: one entry serves every buffer size of a PE array.
//
// The bound is the minimum over all RF-feasible spatial choices of the
// choice's optimistic lattice bound (guidedPart.minLB: the product of
// per-axis minimum temporal contributions, clamped to trafficFloor),
// additionally min'd with the degenerate fallback schedule's exact cost —
// the candidate the search returns when no tiling is capacity-feasible.
// Every returned candidate is either a lattice point of some feasible
// spatial choice or the fallback itself, and every term is a true lower
// bound on every layer, so the minimum never exceeds the exact best
// candidate, nor the guided one, which is never better.
//
// The cost here is step-1 scheduling cycles (model.SchedulingCycles under
// the request's effective bandwidth); the scheduled layer's final
// Stats.Cycles is never smaller (DESIGN.md §14 gives the argument), so the
// bound carries over to whole-network totals.
//
// Like the search itself, the bound arithmetic uses the mapping package's
// checked multiplies and may panic on pathological layer shapes; callers on
// untrusted inputs should guard with obs.Guard and treat a panic as "no
// usable bound". A panicking computation is never memoised.
func SearchLowerBound(req Request) int64 {
	// The compute cannot fail and the background wait is never cancelled.
	lb, _ := boundMemo.Do(context.Background(), boundKey(req), func() (int64, error) {
		return searchLowerBound(req), nil
	})
	return lb
}

// searchLowerBound computes SearchLowerBound without the memo.
func searchLowerBound(req Request) int64 {
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

// trafficFloor is the tiling-independent traffic lower bound that
// exhaustive mode and SearchLowerBound prune and clamp against: the cycles
// to move the weights, the ofmap and every ifmap row and column some window
// touches across the chip boundary once, at the effective bandwidth. A tile
// of Pt output rows fetches (Pt-1)·stride + R input rows, so the tiles of
// any tiling fetch at least min(InH, P·R) rows in all: every input row
// while neighbouring windows overlap or touch, P·R when the stride leaves
// gaps between them. Columns follow alike. Where the stride is at most the
// filter extent the minimum is InH (InW), and the floor equals guidedFloor
// bit for bit.
func trafficFloor(req Request) int64 {
	l := req.Layer
	rows := min(int64(l.InH()), int64(l.P)*int64(l.R))
	cols := min(int64(l.InW()), int64(l.Q)*int64(l.S))
	ifmap := int64(l.N) * int64(l.C) * rows * cols
	vol := l.Volume(workload.Weight) + ifmap + l.Volume(workload.Ofmap)
	return int64(float64(vol*int64(l.WordBits)) / 8 / req.EffectiveBytesPerCycle)
}

// guidedFloor is guided mode's traffic floor: every element of every
// tensor once, every input row included. On layers whose stride exceeds
// the filter extent it overshoots the cost of tilings the cost model can
// reach (DESIGN.md §12); elsewhere it equals trafficFloor. It stays only
// because replacing it changes guided answers on those layers, and with
// them the benchmark's goldens; ROADMAP item 1 deletes it.
func guidedFloor(req Request) int64 {
	l := req.Layer
	return int64(float64(l.TotalVolume()*int64(l.WordBits)) / 8 / req.EffectiveBytesPerCycle)
}
