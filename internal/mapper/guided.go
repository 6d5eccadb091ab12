// Best-first search, the one production search: a lower-bound-guided
// enumeration of the C/M/P/Q tiling lattice of every spatial choice. Both
// modes run it. Exhaustive mode runs it at Epsilon = 0, without the
// warm-start store and against the exact traffic floor (trafficFloor), so
// it returns the exact top-k; guided mode takes Epsilon and warm starts
// from the request.
//
// Every cost term of a tiling — compute cycles, GLB occupancy, and the DRAM
// trip counts whose products along a loop order give each permutation's
// traffic — factorizes per dimension once the spatial skeleton is fixed.
// The search therefore precomputes per-dimension candidate tables for each
// spatial choice, the one cost arithmetic it uses: pass A walks the lattice
// with monotone capacity breaks and bounds every feasible point from the
// tables, and pass B scores the survivors from them in ascending-bound
// order until the next-best bound proves no unexplored tiling can rank
// within the top-k. The tables replicate the full model bit for bit,
// checked multiplies included (TestGuidedTablesMatchModel). As long as
// every bound is a true lower bound, the result at Epsilon = 0 is the exact
// top-k of the lattice, byte-identical to the reference search
// (reference_test.go), and at Epsilon > 0 every returned rank is within
// (1+Epsilon)× of the exact rank's scheduling cycles (see DESIGN.md §12 for
// the argument).
//
// Guided mode still prunes against guidedFloor, which counts every input
// row. When the stride exceeds the filter extent (among the built-in
// networks, ResNet-18's three 1×1 stride-2 downsamples) the cost model
// fetches only the rows a window touches, so that floor can sit above the
// achievable cost. The search then stops at a visit-order-dependent
// candidate, and a guided answer depends on the warm-start seeds, i.e. on
// which searches ran before it. TestGuidedSearchEquivalence covers no such
// layer.
//
// A warm-start store (warmstore.go) seeds guided searches with previous
// winners for similar layer shapes, so repeated guided schedules start
// with a tight pruning threshold instead of a cold one. DSE sweeps turn it
// off (dse.SweepMapper), so a sweep's answers do not depend on the order
// its workers finish in.
package mapper

import (
	"cmp"
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
	// best-first search at Epsilon 0, without warm starts, against the
	// exact traffic floor.
	Exhaustive Mode = iota
	// Guided is the best-first search with Epsilon and warm starts, against
	// guided mode's own traffic floor (guidedFloor).
	Guided
)

// Options selects the search strategy and its accuracy knob. The zero value
// (exhaustive) returns the exact top-k.
type Options struct {
	Mode Mode
	// Epsilon is the admissible scheduling-cycle regression of a guided
	// search relative to the exact top-k: rank-i cycles are at most
	// (1+Epsilon) times the exact rank-i cycles. 0 (the default) makes the
	// guided result byte-identical to the exhaustive one, except on layers
	// whose stride exceeds the filter extent, where guided mode's traffic
	// floor overshoots (see the file comment). Exhaustive mode ignores it.
	Epsilon float64
	// DisableWarmStart skips the cross-request warm-start store in guided
	// mode; exhaustive mode never uses the store. Seeds only tighten
	// pruning, so where every bound holds the results at Epsilon = 0 are
	// unaffected; on layers whose stride exceeds the filter extent, and at
	// any Epsilon > 0, seeds can change the answer. DSE sweeps set it on
	// every design point (dse.SweepMapper); it also serves cold benchmarks
	// and determinism-sensitive tests.
	DisableWarmStart bool
}

// canonical returns the options with the fields the mode ignores zeroed:
// outside guided mode the search runs at Epsilon 0 without warm starts
// whatever they hold, so they must not split the memo or store keys.
func (o Options) canonical() Options {
	if o.Mode != Guided {
		return Options{Mode: o.Mode}
	}
	return o
}

// tiledDims are the dimensions the GLB tiling lattice spans, in pass A's
// nesting order (outermost first). They are C, M, P, Q in Dim order, so a
// tiled dimension's Dim value is its index into a part's axes.
var tiledDims = [4]mapping.Dim{mapping.DimC, mapping.DimM, mapping.DimP, mapping.DimQ}

// evalChunk bounds how many pass-B evaluations run between cancellation
// polls.
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
// package, so costs computed from these tables agree bit-for-bit with the
// full model on the same tiling — TestGuidedTablesMatchModel pins this.
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
// the choice is RF-infeasible: RF occupancy reads only RF-level factors,
// which no GLB tiling touches, so no tiling of the choice fits.
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
	// real lattice point, so its product is not covered by the overflow
	// behaviour of scoring a real point: saturate instead of panicking, and
	// on saturation never skip (minLB = 0) — any feasible point of such a
	// part overflows when it is actually evaluated.
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

// pointOcc computes the GLB tile element counts (workload.Datatypes order)
// and the occupancy of the lattice point idx from the tables alone — no
// Mapping mutation. The element counts replicate tileElems' checked
// multiplies and the occupancy sum replicates GLBBitsUsed's unchecked
// arithmetic, so capacity breaks agree with Mapping.GLBBitsUsed bit-for-bit
// even under (pathological) overflow wraparound. The multiplication *order*
// differs from tileElems' for hoisting, which is harmless: every factor is
// >= 1, so a partial product overflows (panics) in one order exactly when
// the full product overflows in any order.
func (g *guidedPart) pointOcc(wb int64, idx [4]int) (elems [3]int64, occ int64) {
	extC, extM := g.ax[0].ext[idx[0]], g.ax[1].ext[idx[1]]
	extP, extQ := g.ax[2].ext[idx[2]], g.ax[3].ext[idx[3]]

	wE := extM
	if !g.chIsM { // dense: C indexes weights
		wE = num.MulInt64(wE, extC)
	}
	wE = num.MulInt64(wE, g.wRS)
	ch := extC
	if g.chIsM {
		ch = extM
	}
	iE := num.MulInt64(ch, num.MulInt64(g.ax[2].win[idx[2]], g.ax[3].win[idx[3]]))
	oE := num.MulInt64(num.MulInt64(extM, extP), extQ)

	//securelint:ignore overflowmul replicates GLBBitsUsed's unchecked occupancy sum so capacity breaks match Mapping.GLBBitsUsed bit-for-bit
	occ = 2*wE*wb + 2*iE*wb + 2*oE*wb
	return [3]int64{wE, iE, oE}, occ
}

// pointLB computes the exact per-tiling lower bound of a *feasible*
// lattice point over every permutation: its compute cycles against its
// distinct-tile traffic floor, pushed through SchedulingCyclesFor and
// clamped to minTraffic. It must only run on capacity-feasible points — no
// search analyses infeasible tilings, so checked arithmetic here would
// panic where the reference search does not.
func (g *guidedPart) pointLB(wb int64, eff float64, minTraffic int64, idx [4]int, elems [3]int64) int64 {
	floor := g.pointFloor(idx, elems)
	// The bits conversion is unchecked, like SchedulingCycles'.
	lb := model.SchedulingCyclesFor(g.pointCompute(idx), floor*wb, eff)
	if lb < minTraffic {
		lb = minTraffic
	}
	return lb
}

// pointFloor is the point's distinct-tile traffic floor in elements: under
// any loop order each datatype's distinct DRAM tiles cross the chip
// boundary at least once.
func (g *guidedPart) pointFloor(idx [4]int, elems [3]int64) int64 {
	var floor int64
	for dt := range g.rel {
		n := int64(1)
		for i := range tiledDims {
			if g.rel[dt][i] {
				n = num.MulInt64(n, g.ax[i].outer[idx[i]])
			}
		}
		floor += num.MulInt64(n, elems[dt])
	}
	return floor
}

// pointCompute is the lattice point's compute cycles, TemporalIterations'
// product of per-dimension contributions. Every factor is >= 1, so the
// checked products panic in this order exactly when they do in that one.
func (g *guidedPart) pointCompute(idx [4]int) int64 {
	return num.MulInt64(num.MulInt64(num.MulInt64(num.MulInt64(
		g.ax[0].temp[idx[0]], g.ax[1].temp[idx[1]]), g.ax[2].temp[idx[2]]), g.ax[3].temp[idx[3]]), g.fixTemp)
}

// offchipElems returns Mapping.Offchip's elements (reads plus writes) for
// the lattice point idx, whose GLB tiles hold elems elements, under the
// DRAM loop order perm: a tile is fetched once per iteration of the loops
// from the outermost through the innermost one relevant to its datatype.
// The visit products are unchecked as in the model; the traffic products
// are checked, so where the model would wrap the search panics instead.
func (g *guidedPart) offchipElems(perm []mapping.Dim, idx [4]int, elems [3]int64) int64 {
	v := [3]int64{1, 1, 1} // visits per datatype
	run, nOf := int64(1), int64(1)
	for _, d := range perm {
		if int(d) >= len(g.ax) {
			continue // R and S never tile at DRAM
		}
		n := g.ax[d].outer[idx[d]]
		if n == 1 {
			continue
		}
		run *= n
		for dt := range v {
			if g.rel[dt][d] {
				v[dt] = run
			}
		}
		if g.rel[workload.Ofmap][d] {
			nOf *= n // the ofmap's distinct tiles
		}
	}
	total := num.MulInt64(v[workload.Weight], elems[workload.Weight]) +
		num.MulInt64(v[workload.Ifmap], elems[workload.Ifmap])
	vOf, tileOf := v[workload.Ofmap], elems[workload.Ofmap]
	total += num.MulInt64(vOf, tileOf) // writes
	if vOf > nOf {
		total += num.MulInt64(vOf-nOf, tileOf) // partial-sum re-reads
	}
	return total
}

// score offers the feasible lattice point idx, whose GLB tiles hold elems
// elements, to the top-k under every permutation heuristic. All
// permutations of one tiling share its signature, so at most one of them
// survives in the top-k map: they fold to a local winner first — ties go to
// the later permutation, exactly as sequential offers resolve them — and
// pay the admission lookup and the mapping copy once. The permutations
// share the compute cycles and SchedulingCyclesFor is monotone
// nondecreasing in bits, so the fewest bits win on (cycles, bits) too, and
// the winner needs the one cycles call. A winner above a full top-k's k-th
// cycles returns before its signature is built: admit would reject it,
// whether its signature is new or held (a held signature is this tiling at
// this score, and admit rejects ties).
func (g *guidedPart) score(req Request, idx [4]int, elems [3]int64, best *topK) {
	l := req.Layer
	compute := g.pointCompute(idx)
	wordBits := int64(l.WordBits)
	var winBits int64
	var winPerm []mapping.Dim
	for _, perm := range permHeuristics {
		bits := g.offchipElems(perm, idx, elems) * wordBits // unchecked, like SchedulingCycles
		if winPerm == nil || bits <= winBits {
			winBits, winPerm = bits, perm
		}
	}
	winCycles := model.SchedulingCyclesFor(compute, winBits, req.EffectiveBytesPerCycle)
	if kth, full := best.kthCycles(); full && winCycles > kth {
		return
	}
	for i, d := range tiledDims {
		setGLBTile(g.m, l, d, g.ax[i].cands[idx[i]])
	}
	sig := signature(g.m)
	if best.admit(sig, winCycles, winBits) {
		best.insert(sig, winCycles, winBits, g.m, winPerm)
	}
}

// scan is pass A: walk the lattice with monotone capacity breaks, bound
// every feasible point, prefilter against the snapshot threshold, and
// collect the survivors for sorted evaluation. The candidate lists ascend
// and GLB occupancy is monotone nondecreasing in every tile size (tile
// extents, and the ifmap halo they induce, only grow), so a capacity
// violation ends the innermost axis — and when it happens at the smallest
// setting of all inner axes it ends the enclosing axis too. The bound
// itself is not monotone along an axis (ceiling padding), so only capacity
// drives the breaks.
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
					idx := [4]int{ic, im, ip, iq}
					elems, occ := g.pointOcc(wb, idx)
					if occ > req.GLBBits {
						break // larger iq only grows the tiles
					}
					pOverflow = false
					lb := g.pointLB(wb, req.EffectiveBytesPerCycle, minTraffic, idx, elems)
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

// evaluate is pass B: score survivors in ascending-bound order, stopping
// once the next bound proves no unexplored tiling can enter the top-k. The
// threshold only tightens as candidates land, so a tiling discarded against
// the current k-th could never have displaced the final k-th.
func (g *guidedPart) evaluate(ctx context.Context, req Request, eps float64, best *topK, entries []lbEntry, work *obs.MapperSearchEvent) error {
	slices.SortFunc(entries, func(a, b lbEntry) int {
		if c := cmp.Compare(a.lb, b.lb); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	wb := int64(req.Layer.WordBits)
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
		idx := [4]int{int(e.idx >> 24), int(e.idx >> 16 & 0xff), int(e.idx >> 8 & 0xff), int(e.idx & 0xff)}
		elems, _ := g.pointOcc(wb, idx)
		g.score(req, idx, elems, best)
		work.Evaluated++
	}
	return nil
}

// evalSeed scores one warm-start seed snapped onto the part's lattice.
// Seeds are pure hints: a seed that no longer fits the GLB is dropped, one
// whose bound cannot beat the current k-th is counted but not scored, and
// because every snapped seed is a lattice point pass A also visits,
// seeding cannot change the Epsilon = 0 result wherever every bound holds
// — only the order in which the pruning threshold tightens.
func (g *guidedPart) evalSeed(req Request, sd Seed, minTraffic int64, best *topK) bool {
	var idx [4]int
	for i := range idx {
		idx[i] = snapIdx(g.ax[i].cands, int(sd.Tiles[i]))
	}
	wb := int64(req.Layer.WordBits)
	elems, occ := g.pointOcc(wb, idx)
	if occ > req.GLBBits {
		return false
	}
	lb := g.pointLB(wb, req.EffectiveBytesPerCycle, minTraffic, idx, elems)
	if kth, full := best.kthCycles(); !full || lb <= kth {
		g.score(req, idx, elems, best)
	}
	return true
}

// snapIdx returns the index of the largest candidate not exceeding tile (or
// of the smallest candidate when tile undercuts them all), keeping seeds on
// the current request's lattice.
func snapIdx(cands []int, tile int) int {
	i, found := slices.BinarySearch(cands, tile)
	if found || i == 0 {
		return i
	}
	return i - 1
}

// searchGuided is SearchCtx's body in both modes. It shares spatial
// enumeration, tile candidates, capacity arithmetic, scoring and top-k
// semantics with the reference search; only the evaluation *order* and the
// bound-driven stopping differ.
func searchGuided(ctx context.Context, req Request) ([]Candidate, error) {
	if req.TopK < 1 {
		req.TopK = 1
	}
	l := req.Layer
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("mapper: search layer %s: %w", l.Name, cerr)
	}
	// Exhaustive mode asks for the exact top-k and must leave no trace in
	// the warm-start store, so Epsilon, seeding and guided mode's own floor
	// apply to guided mode only.
	eps, seeded, minTraffic := 0.0, false, trafficFloor(req)
	if req.Opt.Mode == Guided {
		eps, seeded, minTraffic = req.Opt.Epsilon, !req.Opt.DisableWarmStart, guidedFloor(req)
	}
	best := newTopK(req.TopK)
	work := obs.MapperSearchEvent{Layer: l.Name}
	if req.Observe != nil {
		defer func() { req.Observe.Observe(obs.Event{Kind: obs.EventMapperSearch, Mapper: &work}) }()
	}

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
		if c := cmp.Compare(parts[a].minLB, parts[b].minLB); c != 0 {
			return c
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
			err = g.evaluate(ctx, req, eps, best, entries, &work)
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
