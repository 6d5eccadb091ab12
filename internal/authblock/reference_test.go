package authblock

// This file retains the pre-batching evaluation paths verbatim, as test
// code. They rebuild the consumer-class decomposition for every
// (orientation, size) candidate — the redundancy the shared
// pairDecomposition removes — and serve as the equivalence oracles for the
// fast paths (equiv_test.go, FuzzEvaluateCrossEquivalence) and as the live
// "before" measurement of BenchmarkAuthBlockOptimalReference.

// evaluateCrossReference is the original EvaluateCross: it recomputes the
// three axis decompositions and ranges over the class maps for each
// candidate. EvaluateCross must return bitwise-identical Costs.
func evaluateCrossReference(p ProducerGrid, c ConsumerGrid, o Orientation, u int, par Params) Costs {
	ch, rows, cols := consumerClasses(p, c)
	var hashReads, redundant int64
	for cc, nc := range ch {
		for rc, nr := range rows {
			for wc, nw := range cols {
				mult := nc * nr * nw
				box := Box{C0: cc.lo, C1: cc.hi, P0: rc.lo, P1: rc.hi, Q0: wc.lo, Q1: wc.hi}
				blocks, covered := CountBoxBlocks(cc.tdim, rc.tdim, wc.tdim, box, o, u)
				hashReads += mult * blocks
				redundant += mult * (covered - box.Volume())
			}
		}
	}
	return Costs{
		HashWriteBits: p.HashWriteBits(u, par),
		HashReadBits:  hashReads * c.FetchesPerTile * int64(par.HashBits),
		RedundantBits: redundant * c.FetchesPerTile * int64(par.WordBits),
	}
}

// OptimalReference is the original optimal-assignment search: orientations
// outer, sizes inner, a full reference evaluation per candidate, no shared
// decomposition, no size memo, no lower-bound pruning. OptimalCtx must select
// the identical assignment with identical costs.
func OptimalReference(p ProducerGrid, c ConsumerGrid, par Params) Result {
	best := Result{Assignment: Assignment{Orientation: AlongQ, U: 1}}
	first := true
	for _, o := range Orientations {
		if skipOrientation(p, o) {
			continue
		}
		for _, u := range candidateSizes(p, c) {
			costs := evaluateCrossReference(p, c, o, u, par)
			if first || costs.Total() < best.Costs.Total() ||
				(costs.Total() == best.Costs.Total() && u > best.Assignment.U) {
				best = Result{Assignment: Assignment{Orientation: o, U: u}, Costs: costs}
				first = false
			}
		}
	}
	return best
}

// tileBaselineDirectReference is the original direct tile baseline over the
// per-candidate class maps.
func tileBaselineDirectReference(p ProducerGrid, c ConsumerGrid, par Params) Costs {
	ch, rows, cols := consumerClasses(p, c)
	var hashReads, redundant int64
	for cc, nc := range ch {
		for rc, nr := range rows {
			for wc, nw := range cols {
				mult := nc * nr * nw
				tileVol := int64(cc.tdim) * int64(rc.tdim) * int64(wc.tdim)
				boxVol := int64(cc.hi-cc.lo) * int64(rc.hi-rc.lo) * int64(wc.hi-wc.lo)
				hashReads += mult
				redundant += mult * (tileVol - boxVol)
			}
		}
	}
	return Costs{
		HashWriteBits: p.NumTiles() * p.WritesPerTile * int64(par.HashBits),
		HashReadBits:  hashReads * c.FetchesPerTile * int64(par.HashBits),
		RedundantBits: redundant * c.FetchesPerTile * int64(par.WordBits),
	}
}
