// Pareto-front machinery: the batch MarkPareto/ParetoFront post-processing
// of a finished sweep, and the streaming frontTracker the coordinator's
// dominance pruning (coordinator.go) checks design-point lower bounds
// against while the sweep is still running.

package dse

import (
	"sort"
	"sync"
)

// MarkPareto sets Pareto on every point not dominated in (AreaMM2, Cycles):
// a point is on the front if no other point has both smaller-or-equal area
// and smaller-or-equal latency (with at least one strict). Points with
// exactly equal area and cycles do not dominate each other, so full ties
// are all marked — the marking is a pure function of the multiset of
// points, independent of their order.
func MarkPareto(points []DesignPoint) {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := points[idx[a]], points[idx[b]]
		//securelint:ignore floateq lexicographic sort key over stored area values; ties fall through to the cycle comparison, so exact equality is the intended semantics and no computed noise is involved
		if pa.AreaMM2 != pb.AreaMM2 {
			return pa.AreaMM2 < pb.AreaMM2
		}
		return pa.Cycles < pb.Cycles
	})
	// Walk equal-area groups in ascending area order. Within a group only
	// the minimum-cycle points can survive (a cheaper same-area point
	// dominates strictly on cycles); they survive iff no strictly smaller
	// area has already reached their cycle count (dominance with area
	// strict). best tracks the minimum cycles over all strictly smaller
	// areas.
	best := int64(1<<62 - 1)
	for g := 0; g < len(idx); {
		h := g + 1
		//securelint:ignore floateq equal-area group boundary over stored values, matching the sort key above
		for h < len(idx) && points[idx[h]].AreaMM2 == points[idx[g]].AreaMM2 {
			h++
		}
		groupMin := points[idx[g]].Cycles // sorted: first of the group is minimal
		for _, i := range idx[g:h] {
			p := &points[i]
			p.Pareto = p.Cycles == groupMin && groupMin < best
		}
		if groupMin < best {
			best = groupMin
		}
		g = h
	}
}

// ParetoFront returns the Pareto-optimal points sorted by ascending area
// (full-tie duplicates preserve their input order).
func ParetoFront(points []DesignPoint) []DesignPoint {
	cp := append([]DesignPoint(nil), points...)
	MarkPareto(cp)
	var out []DesignPoint
	for _, p := range cp {
		if p.Pareto {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		//securelint:ignore floateq lexicographic sort key over stored area values, same semantics as MarkPareto's
		if out[a].AreaMM2 != out[b].AreaMM2 {
			return out[a].AreaMM2 < out[b].AreaMM2
		}
		return out[a].Cycles < out[b].Cycles
	})
	return out
}

// frontPoint is one evaluated (area, cycles) pair on the streaming front.
type frontPoint struct {
	area   float64
	cycles int64
}

// boundVerdict is frontTracker.check's disposition for one design point.
type boundVerdict int

const (
	// boundEvaluate: the bound does not prove dominance; run the full
	// evaluation.
	boundEvaluate boundVerdict = iota
	// boundDefer: the bound is dominated only non-strictly (an exact tie);
	// decide in the final exact pass against the finished front.
	boundDefer
	// boundPrune: some already-evaluated point strictly dominates the bound,
	// so it strictly dominates the point's true cost too — skip it for good.
	boundPrune
)

// frontTracker is the coordinator's streaming Pareto front: the lower-left
// staircase of every exactly-evaluated point so far, shared by all workers
// under a mutex. It answers dominance queries against design-point lower
// bounds.
//
// Pruning against it is sound regardless of insertion order or timing
// whenever lb is a true lower bound: a staircase entry is an exact
// evaluation, so if it strictly dominates (area, lb) it strictly dominates
// (area, trueCycles >= lb), and removing a dominated point from a point set
// never changes which other points are Pareto-optimal. Races only make
// pruning weaker (a front not yet tightened lets more points through to
// full evaluation), never wrong.
type frontTracker struct {
	mu sync.Mutex
	// stair is sorted by strictly ascending area with strictly decreasing
	// cycles; entries weakly dominated by another evaluation are dropped, as
	// they add no pruning power. // guarded by mu
	stair []frontPoint
}

// add folds one exact evaluation into the staircase.
func (t *frontTracker) add(area float64, cycles int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stair)
	hi := sort.Search(n, func(k int) bool { return t.stair[k].area > area })
	if hi > 0 && t.stair[hi-1].cycles <= cycles {
		// Weakly dominated by an existing entry (area <=, cycles <=): every
		// bound it could prune, that entry already prunes.
		return
	}
	lo := hi
	//securelint:ignore floateq exact equal-area replacement of a worse same-area entry; both values are stored evaluation results, not computed noise
	if hi > 0 && t.stair[hi-1].area == area {
		lo = hi - 1
	}
	for hi < n && t.stair[hi].cycles >= cycles {
		hi++ // larger area, >= cycles: weakly dominated by the new entry
	}
	t.stair = append(t.stair[:lo], append([]frontPoint{{area: area, cycles: cycles}}, t.stair[hi:]...)...)
}

// check decides a design point's fate from its exact area and cycle lower
// bound.
func (t *frontTracker) check(area float64, lb int64) boundVerdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := sort.Search(len(t.stair), func(k int) bool { return t.stair[k].area > area })
	if idx == 0 {
		return boundEvaluate // nothing evaluated at this area or below
	}
	q := t.stair[idx-1] // minimum cycles among evaluated areas <= area
	if q.cycles > lb {
		return boundEvaluate
	}
	// q weakly dominates the bound. Prune only on strict dominance: a full
	// tie in both coordinates would mark both points Pareto, so the tied
	// point must survive to the exact pass.
	if q.cycles == lb && !(q.area < area) {
		return boundDefer
	}
	return boundPrune
}
