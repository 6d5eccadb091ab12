package mapper

import (
	"context"
	"fmt"

	"secureloop/internal/mapping"
	"secureloop/internal/model"
	"secureloop/internal/par"
)

// This file retains the pre-optimisation step-1 search verbatim: a
// parallel fan-out over spatial choices, one Mapping clone per tiling, full
// model evaluation per permutation, capacity checks by skipping (never
// breaking), and only the tiling-independent traffic lower bound. It is the
// oracle for TestSearchEquivalence, which asserts that the best-first
// search — per-dimension bound tables, monotone capacity breaks,
// ascending-bound evaluation, per-tiling analysis, lazy cloning — returns a
// byte-identical top-k. It is deliberately not on any production path.

// searchReference is SearchCtx with the reference search, pruning against
// the exact traffic floor.
func searchReference(req Request) []Candidate {
	return searchReferenceFloor(req, trafficFloor(req))
}

// searchReferenceFloor is searchReference pruning against the given
// tiling-independent floor instead; at 0 each tiling's compute cycles are
// its only bound, so no floor can mislead the search.
func searchReferenceFloor(req Request, floor int64) []Candidate {
	out, _ := search(context.Background(), req, func(_ context.Context, req Request, sp spatialChoice, best *topK) {
		searchTilingsReference(req, sp, floor, best)
	})
	return out
}

// search runs the spatial-choice fan-out with the given per-choice tiling
// enumerator and merges the per-choice top-k sets.
func search(ctx context.Context, req Request, tilings func(context.Context, Request, spatialChoice, *topK)) ([]Candidate, error) {
	if req.TopK < 1 {
		req.TopK = 1
	}
	l := req.Layer

	// Spatial choices are independent; search them in parallel and merge.
	spatials := spatialChoices(l, req.PEsX, req.PEsY)
	parts := make([]*topK, len(spatials))
	err := par.Each(ctx, 0, len(spatials), func(i int) error {
		part := newTopK(req.TopK)
		tilings(ctx, req, spatials[i], part)
		parts[i] = part
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mapper: search layer %s: %w", l.Name, err)
	}
	best := newTopK(req.TopK)
	for _, part := range parts {
		for _, c := range part.sorted() {
			best.offer(c)
		}
	}

	out := best.sorted()
	if len(out) == 0 {
		out = fallbackCandidates(req)
	}
	return out, nil
}

// offer is the general admission path (reference search, part merging):
// on a score tie with the stored candidate the later offer wins, matching
// the historical sequential-offer semantics.
func (t *topK) offer(c Candidate) {
	sig := signature(c.Mapping)
	if cur, ok := t.best[sig]; ok {
		if cur.cycles < c.Cycles || (cur.cycles == c.Cycles && cur.bits < c.OffchipBits) {
			return
		}
	} else if kth, full := t.kthCycles(); full && c.Cycles > kth {
		return
	}
	t.insert(sig, c.Cycles, c.OffchipBits, c.Mapping, nil)
}

// searchTilingsReference enumerates tilings by cloning the skeleton per
// point and pruning by capacity with `continue`.
func searchTilingsReference(req Request, sp spatialChoice, minTrafficCycles int64, best *topK) {
	l := req.Layer
	skeleton := baseMapping(l, sp)

	cs := tileCandidates(mapping.Bound(l, mapping.DimC))
	ms := tileCandidates(mapping.Bound(l, mapping.DimM))
	ps := tileCandidates(mapping.Bound(l, mapping.DimP))
	qs := tileCandidates(mapping.Bound(l, mapping.DimQ))

	for _, ct := range cs {
		for _, mt := range ms {
			for _, pt := range ps {
				for _, qt := range qs {
					m := skeleton.Clone()
					setGLBTile(m, l, mapping.DimC, ct)
					setGLBTile(m, l, mapping.DimM, mt)
					setGLBTile(m, l, mapping.DimP, pt)
					setGLBTile(m, l, mapping.DimQ, qt)
					// GLB holds full filter extents.
					setGLBTile(m, l, mapping.DimR, mapping.Bound(l, mapping.DimR))
					setGLBTile(m, l, mapping.DimS, mapping.Bound(l, mapping.DimS))

					if m.GLBBitsUsed(l) > req.GLBBits {
						continue
					}
					if m.RFBitsUsed(l) > req.RFBits {
						continue
					}
					// Cheap lower bound on any permutation's cost: compute
					// cycles (which are permutation-independent), clamped to
					// the tiling-independent traffic floor.
					lower := m.TemporalIterations(l)
					if lower < minTrafficCycles {
						lower = minTrafficCycles
					}
					if kth, full := best.kthCycles(); full && lower > kth {
						continue
					}
					scorePermutationsReference(req, m, best)
				}
			}
		}
	}
}

// scorePermutationsReference clones the tiling for every permutation and
// scores it with the unsplit model entry point.
func scorePermutationsReference(req Request, m *mapping.Mapping, best *topK) {
	l := req.Layer
	for _, perm := range permHeuristics {
		mm := m.Clone()
		mm.PermDRAM = perm
		mm.PermGLB = perm
		cycles := model.SchedulingCycles(l, mm, req.EffectiveBytesPerCycle)
		bits := mm.Offchip(l).TotalElems() * int64(l.WordBits)
		best.offer(Candidate{Mapping: mm, Cycles: cycles, OffchipBits: bits})
	}
}
