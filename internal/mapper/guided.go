// Best-first search: a lower-bound-guided enumeration of the same tiling
// lattice the lattice walk (searchTilings) visits. Guided mode always runs
// it; exhaustive mode runs it at Epsilon = 0 without the warm-start store
// on every layer whose traffic floor holds (floorHolds), which is every
// built-in layer except ResNet-18's three 1×1 stride-2 downsamples.
//
// The lattice walk pays a full mapping.Analyze plus a six-way permutation
// fold for every capacity-feasible tiling. The best-first search observes
// that every term of scoreTiling's per-tiling lower bound — compute
// cycles, the distinct-tile traffic floor MinOffchipElems, and the GLB
// occupancy — factorizes per dimension once the spatial skeleton is fixed.
// It therefore precomputes per-dimension candidate tables for each spatial
// choice, derives the exact lower bound of every lattice point with a
// handful of integer multiplies (pass A), sorts the survivors by bound,
// and only scores tilings through the full permutation fold (pass B) until
// the next-best bound proves no unexplored tiling can rank within the
// top-k. At Epsilon = 0 the result is byte-identical to the lattice walk,
// and at Epsilon > 0 every returned rank is within (1+Epsilon)× of the
// exact rank's scheduling cycles, as long as every bound is a true lower
// bound (see DESIGN.md §12 for the argument). One bound is not: the
// tiling-independent traffic floor counts every input row, but when the
// stride exceeds the filter extent the cost model fetches only the rows a
// window touches, so the floor can sit above the achievable cost. On such
// layers both searches stop at a visit-order-dependent candidate, so
// exhaustive mode keeps the lattice walk there, while a guided answer can
// differ from it and depends on the warm-start seeds, i.e. on which
// searches ran before it. TestGuidedSearchEquivalence covers no such
// layer.
//
// A warm-start store (warmstore.go) seeds guided searches with previous
// winners for similar layer shapes, so DSE sweeps over neighbouring design
// points start with a tight pruning threshold instead of a cold one.
package mapper

import (
	"context"
	"fmt"
	"math"
	"slices"

	"secureloop/internal/mapping"
	"secureloop/internal/model"
	"secureloop/internal/num"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// Mode selects the step-1 search strategy.
type Mode int

const (
	// Exhaustive returns the exact top-k of the whole tiling lattice: the
	// best-first search at Epsilon 0 without warm starts where the traffic
	// floor holds, the lattice walk where it overshoots.
	Exhaustive Mode = iota
	// Guided is the lower-bound-guided best-first search on every layer,
	// with Epsilon and warm starts.
	Guided
)

// Options selects the search strategy and its accuracy knob. The zero value
// (exhaustive) returns the historical exact answers.
type Options struct {
	Mode Mode
	// Epsilon is the admissible scheduling-cycle regression of a guided
	// search relative to the exact top-k: rank-i cycles are at most
	// (1+Epsilon) times the exact rank-i cycles. 0 (the default) makes the
	// guided result byte-identical to the exhaustive one, except on layers
	// whose stride exceeds the filter extent, where the traffic floor
	// overshoots (see the file comment). Exhaustive mode ignores it.
	Epsilon float64
	// DisableWarmStart skips the cross-request warm-start store in guided
	// mode; exhaustive mode never uses the store. Seeds only tighten
	// pruning, so where every bound holds the results at Epsilon = 0 are
	// unaffected; on layers whose stride exceeds the filter extent, and at
	// any Epsilon > 0, seeds can change the answer. It exists for cold
	// benchmarks and determinism-sensitive tests.
	DisableWarmStart bool
}

// tiledDims are the dimensions the GLB tiling loop sweeps, in the nesting
// order of searchTilings (outermost first).
var tiledDims = [4]mapping.Dim{mapping.DimC, mapping.DimM, mapping.DimP, mapping.DimQ}

// evalChunk bounds how many pass-B evaluations run between cancellation
// polls, matching the batch-boundary polling of the exhaustive path.
const evalChunk = 64

// stopLB reports whether a tiling whose lower bound is lb can be discarded
// against the current k-th best. At eps = 0 the rule is strict (bound ties
// must still be scored: the tie-breaking order is (cycles, bits, signature)
// and a bound-tied tiling may displace the boundary candidate); at eps > 0
// the bound is inflated, which is exactly what admits the (1+eps) per-rank
// regression and nothing more.
func stopLB(lb, kth int64, eps float64) bool {
	if eps <= 0 {
		return lb > kth
	}
	return float64(lb)*(1+eps) > float64(kth)
}

// lbEntry is one capacity-feasible lattice point awaiting evaluation: its
// exact analytical lower bound and the packed per-axis candidate indices.
type lbEntry struct {
	lb  int64
	idx uint32
}

// guidedAxis holds the per-candidate factorized terms of one tiled
// dimension under a fixed spatial skeleton. Every field replicates the
// arithmetic (including the checked-multiply discipline) of the mapping
// package, so bounds computed from these tables agree bit-for-bit with
// Mapping.Analyze on the same tiling — TestGuidedTablesMatchAnalyze pins
// this.
type guidedAxis struct {
	cands []int   // raw tile candidates, ascending (tileCandidates order)
	ext   []int64 // min(TileDim, bound): the GLB tile extent
	outer []int64 // DRAM-level trip count (OuterCount at GLB)
	temp  []int64 // TemporalIterations contribution: perStep × dramOuter
	win   []int64 // ifmap halo extent along P/Q; nil for C/M

	minTemp int64 // min over temp, for the part-level bound
}

// buildAxis tabulates dimension d's candidates for the spatial skeleton
// held by m (R/S GLB factors already set).
func buildAxis(m *mapping.Mapping, l *workload.Layer, d mapping.Dim) guidedAxis {
	b := mapping.Bound(l, d)
	rf := m.Factor(mapping.RF, d)
	sx := m.Factor(mapping.SpatialX, d)
	sy := m.Factor(mapping.SpatialY, d)
	//securelint:ignore overflowmul sub-GLB factors multiply to at most the padded dimension bound (setGLBTile invariant); replicated unchecked so the table matches Mapping.TileDim bit-for-bit
	below := rf * sx * sy
	cands := tileCandidates(b)
	ax := guidedAxis{cands: cands}
	ax.ext = make([]int64, len(cands))
	ax.outer = make([]int64, len(cands))
	ax.temp = make([]int64, len(cands))
	if d == mapping.DimP || d == mapping.DimQ {
		ax.win = make([]int64, len(cands))
	}
	stride, filt := l.StrideH, l.R
	if d == mapping.DimQ {
		stride, filt = l.StrideW, l.S
	}
	for j, tile := range cands {
		if tile < below {
			tile = below
		}
		glbF := num.CeilDiv(tile, below)
		//securelint:ignore overflowmul same TileDim replication as `below` above: the factor product is bounded by the padded dimension bound
		tileDim := below * glbF
		ext := tileDim
		if ext > b {
			ext = b
		}
		ax.ext[j] = int64(ext)
		if tileDim >= b {
			ax.outer[j] = 1
		} else {
			ax.outer[j] = int64(num.CeilDiv(b, tileDim))
		}
		// Mirrors TemporalIterations' per-dimension body, checked multiplies
		// included.
		perStep := num.MulInt64(int64(rf), int64(glbF))
		spatial := num.MulInt64(int64(sx), int64(sy))
		tile64 := num.MulInt64(perStep, spatial)
		outer := int64(1)
		if tile64 < int64(b) {
			outer = num.CeilDiv64(int64(b), tile64)
		}
		ax.temp[j] = num.MulInt64(perStep, outer)
		if ax.win != nil {
			ax.win[j] = num.MulInt64(ax.ext[j]-1, int64(stride)) + int64(filt)
		}
		if j == 0 || ax.temp[j] < ax.minTemp {
			ax.minTemp = ax.temp[j]
		}
	}
	return ax
}

// guidedPart is the per-spatial-choice search state: the reusable mapping,
// the per-dimension tables, and the part-level optimistic bound used to
// skip the whole choice when it cannot beat the current top-k.
type guidedPart struct {
	sp spatialChoice
	m  *mapping.Mapping
	ax [4]guidedAxis // indexed like tiledDims: C, M, P, Q

	fixTemp int64 // R and S temporal contributions (tiling-independent)
	wRS     int64 // weight R×S extent product (tiling-independent)
	rel     [3][4]bool
	chIsM   bool // depthwise: the ifmap channel loop is carried by M

	minLB   int64 // optimistic lower bound over the whole lattice
	lattice int64 // lattice point count, for the skipped counter
}

// newGuidedPart builds the search state for one spatial choice, or nil when
// the choice is RF-infeasible (matching searchTilings' early return).
func newGuidedPart(req Request, sp spatialChoice, minTrafficCycles int64) *guidedPart {
	l := req.Layer
	m := baseMapping(l, sp)
	if m.RFBitsUsed(l) > req.RFBits {
		return nil
	}
	setGLBTile(m, l, mapping.DimR, mapping.Bound(l, mapping.DimR))
	setGLBTile(m, l, mapping.DimS, mapping.Bound(l, mapping.DimS))

	g := &guidedPart{sp: sp, m: m, chIsM: l.Depthwise}
	g.lattice = 1
	for i, d := range tiledDims {
		g.ax[i] = buildAxis(m, l, d)
		g.lattice *= int64(len(g.ax[i].cands))
		for dt := range g.rel {
			g.rel[dt][i] = mapping.Relevant(l, workload.Datatype(dt), d)
		}
	}
	// R/S terms: their GLB tiles always cover the full filter extents, so
	// their temporal contributions and weight extents are per-part constants.
	tR := dimTempContrib(m, l, mapping.DimR)
	tS := dimTempContrib(m, l, mapping.DimS)
	g.fixTemp = num.MulInt64(tR, tS)
	g.wRS = num.MulInt64(int64(mapping.Bound(l, mapping.DimR)), int64(mapping.Bound(l, mapping.DimS)))

	// The optimistic bound combines per-axis minima that may not form a
	// real lattice point, so its product is not covered by the exhaustive
	// path's overflow behaviour: saturate instead of panicking, and on
	// saturation never skip (minLB = 0) — any feasible point of such a part
	// overflows identically on both paths when actually evaluated.
	minTemp, ok := mulSat64(g.ax[0].minTemp, g.ax[1].minTemp)
	for _, f := range [...]int64{g.ax[2].minTemp, g.ax[3].minTemp, g.fixTemp} {
		if !ok {
			break
		}
		minTemp, ok = mulSat64(minTemp, f)
	}
	if ok {
		g.minLB = minTemp
	}
	if g.minLB < minTrafficCycles {
		g.minLB = minTrafficCycles
	}
	return g
}

// mulSat64 multiplies positive factors, reporting false on int64 overflow
// instead of panicking (see the minLB comment in newGuidedPart).
func mulSat64(a, b int64) (int64, bool) {
	if a > 0 && b > 0 && a <= math.MaxInt64/b {
		return a * b, true
	}
	return 0, false
}

// dimTempContrib mirrors one dimension's term of TemporalIterations for the
// factors currently held by m.
func dimTempContrib(m *mapping.Mapping, l *workload.Layer, d mapping.Dim) int64 {
	perStep := num.MulInt64(int64(m.Factor(mapping.RF, d)), int64(m.Factor(mapping.GLB, d)))
	spatial := num.MulInt64(int64(m.Factor(mapping.SpatialX, d)), int64(m.Factor(mapping.SpatialY, d)))
	tile := num.MulInt64(perStep, spatial)
	b := int64(mapping.Bound(l, d))
	outer := int64(1)
	if tile < b {
		outer = num.CeilDiv64(b, tile)
	}
	return num.MulInt64(perStep, outer)
}

// pointOcc computes the GLB tile element counts and the occupancy of the
// lattice point (ic, im, ip, iq) from the tables alone — no Mapping
// mutation. The element counts replicate tileElems' checked multiplies and
// the occupancy sum replicates GLBBitsUsed's unchecked arithmetic, so
// capacity breaks agree with the exhaustive path bit-for-bit even under
// (pathological) overflow wraparound. The multiplication *order* differs
// from tileElems' for hoisting, which is harmless: every factor is >= 1, so
// a partial product overflows (panics) in one order exactly when the full
// product overflows in any order.
func (g *guidedPart) pointOcc(wb int64, ic, im, ip, iq int) (wE, iE, oE, occ int64) {
	extC, extM := g.ax[0].ext[ic], g.ax[1].ext[im]
	extP, extQ := g.ax[2].ext[ip], g.ax[3].ext[iq]

	wE = extM
	if !g.chIsM { // dense: C indexes weights
		wE = num.MulInt64(wE, extC)
	}
	wE = num.MulInt64(wE, g.wRS)
	ch := extC
	if g.chIsM {
		ch = extM
	}
	iE = num.MulInt64(ch, num.MulInt64(g.ax[2].win[ip], g.ax[3].win[iq]))
	oE = num.MulInt64(num.MulInt64(extM, extP), extQ)

	//securelint:ignore overflowmul replicates GLBBitsUsed's unchecked occupancy sum so guided capacity breaks match the exhaustive path bit-for-bit
	occ = 2*wE*wb + 2*iE*wb + 2*oE*wb
	return wE, iE, oE, occ
}

// pointLB computes the exact scoreTiling lower bound of a *feasible*
// lattice point: compute cycles (TemporalIterations replication) and the
// distinct-tile traffic floor (Analyze.MinOffchipElems replication), pushed
// through the same SchedulingCyclesFor and minTrafficCycles clamp. It must
// only run on capacity-feasible points — the exhaustive path never analyses
// infeasible tilings, so checked arithmetic here would panic where the
// oracle does not.
func (g *guidedPart) pointLB(wb int64, eff float64, minTraffic, wE, iE, oE int64, ic, im, ip, iq int) int64 {
	idx := [4]int{ic, im, ip, iq}
	elems := [3]int64{wE, iE, oE} // workload.Datatypes order
	var minOff int64
	for dt := range g.rel {
		n := int64(1)
		for i := range tiledDims {
			if g.rel[dt][i] {
				n = num.MulInt64(n, g.ax[i].outer[idx[i]])
			}
		}
		minOff += num.MulInt64(n, elems[dt])
	}

	compute := num.MulInt64(num.MulInt64(num.MulInt64(num.MulInt64(
		g.ax[0].temp[ic], g.ax[1].temp[im]), g.ax[2].temp[ip]), g.ax[3].temp[iq]), g.fixTemp)

	//securelint:ignore overflowmul replicates scoreTiling's unchecked bits conversion of the traffic floor
	lb := model.SchedulingCyclesFor(compute, minOff*wb, eff)
	if lb < minTraffic {
		lb = minTraffic
	}
	return lb
}

// scan is pass A: walk the lattice with the exhaustive path's monotone
// capacity breaks, bound every feasible point, prefilter against the
// snapshot threshold, and collect the survivors for sorted evaluation. The
// bound itself is not monotone along an axis (ceiling padding), so only
// capacity — which is monotone — drives the breaks.
func (g *guidedPart) scan(ctx context.Context, req Request, eps float64, minTraffic int64, best *topK, entries []lbEntry, work *obs.MapperSearchEvent) ([]lbEntry, error) {
	wb := int64(req.Layer.WordBits)
	kth, full := best.kthCycles()
	for ic := range g.ax[0].cands {
		if err := ctx.Err(); err != nil {
			return entries, err
		}
		cOverflow := true
		for im := range g.ax[1].cands {
			if err := ctx.Err(); err != nil {
				return entries, err
			}
			mOverflow := true
			for ip := range g.ax[2].cands {
				pOverflow := true
				for iq := range g.ax[3].cands {
					wE, iE, oE, occ := g.pointOcc(wb, ic, im, ip, iq)
					if occ > req.GLBBits {
						break // larger iq only grows the tiles
					}
					pOverflow = false
					lb := g.pointLB(wb, req.EffectiveBytesPerCycle, minTraffic, wE, iE, oE, ic, im, ip, iq)
					if full && stopLB(lb, kth, eps) {
						work.Pruned++
						continue
					}
					entries = append(entries, lbEntry{
						lb:  lb,
						idx: uint32(ic)<<24 | uint32(im)<<16 | uint32(ip)<<8 | uint32(iq),
					})
				}
				if pOverflow {
					break // overflowed at the smallest iq
				}
				mOverflow = false
			}
			if mOverflow {
				break // overflowed at the smallest (ip, iq)
			}
			cOverflow = false
		}
		if cOverflow {
			break // overflowed at the smallest (im, ip, iq)
		}
	}
	return entries, nil
}

// evaluate is pass B: score survivors in ascending-bound order through the
// exact same scoreTiling the exhaustive path uses, stopping once the next
// bound proves no unexplored tiling can enter the top-k. The threshold only
// tightens as candidates land, so a tiling discarded against the current
// k-th could never have displaced the final k-th.
func (g *guidedPart) evaluate(ctx context.Context, req Request, eps float64, minTraffic int64, best *topK, entries []lbEntry, work *obs.MapperSearchEvent) error {
	slices.SortFunc(entries, func(a, b lbEntry) int {
		if a.lb != b.lb {
			if a.lb < b.lb {
				return -1
			}
			return 1
		}
		if a.idx != b.idx {
			if a.idx < b.idx {
				return -1
			}
			return 1
		}
		return 0
	})
	l := req.Layer
	for n, e := range entries {
		if n%evalChunk == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if kth, full := best.kthCycles(); full && stopLB(e.lb, kth, eps) {
			work.Pruned += int64(len(entries) - n)
			return nil
		}
		ic := int(e.idx >> 24)
		im := int(e.idx >> 16 & 0xff)
		ip := int(e.idx >> 8 & 0xff)
		iq := int(e.idx & 0xff)
		setGLBTile(g.m, l, mapping.DimC, g.ax[0].cands[ic])
		setGLBTile(g.m, l, mapping.DimM, g.ax[1].cands[im])
		setGLBTile(g.m, l, mapping.DimP, g.ax[2].cands[ip])
		setGLBTile(g.m, l, mapping.DimQ, g.ax[3].cands[iq])
		scoreTiling(req, g.m, minTraffic, best)
		work.Evaluated++
	}
	return nil
}

// evalSeed scores one warm-start seed snapped onto the part's lattice.
// Seeds are pure hints: a seed that no longer fits the GLB is dropped, and
// because every snapped seed is a lattice point the exhaustive path also
// visits, seeding cannot change the Epsilon = 0 result — only the order in
// which the pruning threshold tightens.
func (g *guidedPart) evalSeed(req Request, sd Seed, minTraffic int64, best *topK) bool {
	l := req.Layer
	for i, d := range tiledDims {
		setGLBTile(g.m, l, d, snapTile(g.ax[i].cands, int(sd.Tiles[i])))
	}
	if g.m.GLBBitsUsed(l) > req.GLBBits {
		return false
	}
	scoreTiling(req, g.m, minTraffic, best)
	return true
}

// snapTile returns the largest candidate not exceeding tile (or the
// smallest candidate when tile undercuts them all), keeping seeds on the
// current request's lattice.
func snapTile(cands []int, tile int) int {
	i, _ := slices.BinarySearch(cands, tile)
	if i < len(cands) && cands[i] == tile {
		return tile
	}
	if i == 0 {
		return cands[0]
	}
	return cands[i-1]
}

// searchGuided is SearchCtx's best-first body, in guided mode and in
// exhaustive mode where the floor holds. It shares spatial enumeration,
// tile candidates, capacity arithmetic, scoring and top-k semantics with
// the lattice walk; only the evaluation *order* and the bound-driven
// stopping differ.
func searchGuided(ctx context.Context, req Request) ([]Candidate, error) {
	if req.TopK < 1 {
		req.TopK = 1
	}
	l := req.Layer
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("mapper: search layer %s: %w", l.Name, cerr)
	}
	// Exhaustive mode asks for the exact top-k and must leave no trace in
	// the warm-start store, so Epsilon and seeding apply to guided mode only.
	eps, seeded := 0.0, false
	if req.Opt.Mode == Guided {
		eps, seeded = req.Opt.Epsilon, !req.Opt.DisableWarmStart
	}
	best := newTopK(req.TopK)
	work := obs.MapperSearchEvent{Layer: l.Name}
	if req.Observe != nil {
		defer func() { req.Observe.MapperSearch(work) }()
	}

	minTraffic := trafficFloor(req)

	var parts []*guidedPart
	for _, sp := range spatialChoices(l, req.PEsX, req.PEsY) {
		if g := newGuidedPart(req, sp, minTraffic); g != nil {
			parts = append(parts, g)
		}
	}

	// Warm-start seeds tighten the pruning threshold before any lattice is
	// walked; each is snapped to its spatial choice's lattice and scored
	// like any other tiling.
	if seeded {
		for _, sd := range warmSeeds(req) {
			key := sd.spatialKey()
			for _, g := range parts {
				if g.sp.normKey() == key {
					if g.evalSeed(req, sd, minTraffic, best) {
						work.WarmSeeds++
						work.Evaluated++
					}
					break
				}
			}
		}
	}

	// Process spatial choices in ascending optimistic-bound order so the
	// threshold tightens as early as possible and later parts can be
	// skipped wholesale.
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if parts[a].minLB != parts[b].minLB {
			if parts[a].minLB < parts[b].minLB {
				return -1
			}
			return 1
		}
		return a - b
	})

	var entries []lbEntry
	for _, pi := range order {
		g := parts[pi]
		if kth, full := best.kthCycles(); full && stopLB(g.minLB, kth, eps) {
			work.Skipped += g.lattice
			continue
		}
		var err error
		entries, err = g.scan(ctx, req, eps, minTraffic, best, entries[:0], &work)
		if err == nil {
			err = g.evaluate(ctx, req, eps, minTraffic, best, entries, &work)
		}
		if err != nil {
			return nil, fmt.Errorf("mapper: search layer %s: %w", l.Name, err)
		}
	}

	out := best.sorted()
	if len(out) == 0 {
		out = fallbackCandidates(req)
	}
	if seeded {
		warmPut(req, out)
	}
	return out, nil
}
