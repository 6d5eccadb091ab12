package mapper

import (
	"context"

	"secureloop/internal/mapping"
	"secureloop/internal/model"
)

// This file retains the pre-optimisation step-1 inner loop verbatim: one
// Mapping clone per tiling, full model evaluation per permutation, capacity
// checks by skipping (never breaking), and only the tiling-independent
// traffic lower bound. It is the oracle for TestSearchEquivalence, which
// asserts that the optimised searchTilings — reusable mapping, per-tiling
// TilingAnalysis, monotone capacity breaks, tightened lower bound, lazy
// cloning — returns a byte-identical top-k. It is deliberately not exported
// and not on any production path.

// searchReference is SearchCtx with the reference inner loop.
func searchReference(req Request) []Candidate {
	out, _ := search(context.Background(), req, searchTilingsReference)
	return out
}

// searchTilingsReference enumerates tilings by cloning the skeleton per
// point and pruning by capacity with `continue`. The context parameter only
// satisfies the shared enumerator shape; the reference loop is retained
// verbatim and never runs under a cancellable context.
func searchTilingsReference(_ context.Context, req Request, sp spatialChoice, best *topK) {
	l := req.Layer
	skeleton := baseMapping(l, sp)

	// Cheap lower bound on any permutation's cost: compute cycles (which
	// are permutation-independent) and the cycles to move each tensor
	// off-chip at least once.
	minTrafficCycles := int64(float64(l.TotalVolume()*int64(l.WordBits)) / 8 / req.EffectiveBytesPerCycle)

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
