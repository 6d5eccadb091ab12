// Package mapper searches the loopnest-schedule space of one layer on one
// architecture, the role Timeloop plays in the paper's first scheduling
// step. The search enumerates spatial mappings, per-dimension tile sizes
// and loop permutations, prunes by buffer capacity, scores candidates with
// the model's effective-bandwidth cost (Section 4.1) and returns the top-k
// distinct schedules per layer — the neighbour sets the simulated-annealing
// step samples from (Section 4.3).
//
// The inner loop is the hottest path of the whole tool (it runs once per
// layer per design point). Every search runs best-first (guided.go): it
// bounds each capacity-feasible tiling from per-dimension tables, then
// scores tilings in ascending-bound order until no unscored one can enter
// the top-k. Scoring reads the same tables: each permutation's traffic is a
// product of the tiling's DRAM trip counts along the loop order, so no
// tiling is walked through the full model, and one reusable Mapping per
// spatial choice is copied only when a candidate actually enters the
// top-k. The pre-optimisation search is retained in reference_test.go as
// the oracle for the search-equivalence tests.
package mapper

import (
	"bytes"
	"context"
	"slices"
	"sort"

	"secureloop/internal/mapping"
	"secureloop/internal/model"
	"secureloop/internal/num"
	"secureloop/internal/obs"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// Candidate is one scored schedule.
type Candidate struct {
	Mapping *mapping.Mapping
	// Cycles is the step-1 scheduling cost: latency under the effective
	// off-chip bandwidth, before authentication overhead.
	Cycles int64
	// OffchipBits is the data-only off-chip traffic, used as a tie-breaker
	// (among equal-latency schedules, less traffic means less energy and
	// less authentication exposure).
	OffchipBits int64
}

// Request describes one mapping search.
type Request struct {
	Layer *workload.Layer
	// PEsX, PEsY give the PE array shape.
	PEsX, PEsY int
	// GLBBits and RFBits are buffer capacities.
	GLBBits, RFBits int64
	// EffectiveBytesPerCycle is the off-chip bandwidth the cost model
	// assumes (min(DRAM, crypto) for secure designs).
	EffectiveBytesPerCycle float64
	// TopK is how many distinct schedules to return (>=1).
	TopK int
	// Opt selects the search strategy; the zero value (exhaustive, ε=0)
	// returns the exact top-k.
	Opt Options
	// Observe receives per-search instrumentation events (best-first search
	// evaluated/pruned/skipped accounting); nil means none. It is not part
	// of the cached-search identity.
	Observe obs.Observer
	// Store, when non-nil, is the persistent result tier consulted by
	// SearchCachedCtx on an in-memory miss and populated after a
	// successful search. Like Observe it is not part of the
	// cached-search identity: a store hit is byte-identical to the search
	// it replaces.
	Store *store.Store
}

// SearchCtx returns the top-k schedules for the request, best first. The
// result is never empty for a valid layer: a degenerate all-sequential
// mapping always fits. Both modes run the best-first search (guided.go);
// exhaustive mode runs it at Epsilon 0, without the warm-start store and
// against the exact traffic floor, so it returns the exact top-k of the
// tiling lattice. On cancellation the search stops at its next polling
// point and the error is ctx.Err() wrapped with the layer name. A panic
// anywhere in the search (an overflow guard tripping on a malformed layer)
// is recovered here and surfaced as an error.
func SearchCtx(ctx context.Context, req Request) (out []Candidate, err error) {
	defer obs.CapturePanic(&err)
	return searchGuided(ctx, req)
}

// fallbackCandidates returns the degenerate all-sequential schedule
// (single-element tiles, full filter extents at the GLB) — always valid, so
// no search ever comes back empty. The search and the reference search share
// it so they stay byte-identical on layers with no capacity-feasible tiling.
func fallbackCandidates(req Request) []Candidate {
	l := req.Layer
	m := baseMapping(l, spatialChoice{})
	for _, d := range mapping.Dims {
		m.SetFactor(mapping.GLB, d, 1)
	}
	m.SetFactor(mapping.GLB, mapping.DimR, mapping.Bound(l, mapping.DimR))
	m.SetFactor(mapping.GLB, mapping.DimS, mapping.Bound(l, mapping.DimS))
	return []Candidate{{
		Mapping:     m,
		Cycles:      model.SchedulingCycles(l, m, req.EffectiveBytesPerCycle),
		OffchipBits: m.Offchip(l).TotalElems() * int64(l.WordBits),
	}}
}

// spatialChoice assigns one dimension to each PE-array axis.
type spatialChoice struct {
	dimX, dimY mapping.Dim
	fx, fy     int
}

// spatialChoices enumerates spatial mappings: pairs of distinct dimensions
// spread over the array columns/rows with the largest usable factors (and a
// half-size alternative, which sometimes wins when it divides the bound
// more evenly). The row-stationary assignment of the base architecture
// (filter rows along the array rows, output columns along the array
// columns) is always included.
func spatialChoices(l *workload.Layer, pesX, pesY int) []spatialChoice {
	xDims := []mapping.Dim{mapping.DimQ, mapping.DimP, mapping.DimM, mapping.DimC}
	yDims := []mapping.Dim{mapping.DimR, mapping.DimM, mapping.DimC, mapping.DimP}
	var out []spatialChoice
	seen := map[[4]int]bool{}
	for _, dx := range xDims {
		for _, dy := range yDims {
			if dx == dy {
				continue
			}
			bx, by := mapping.Bound(l, dx), mapping.Bound(l, dy)
			if bx <= 1 && by <= 1 {
				continue
			}
			for _, fx := range spatialFactors(bx, pesX) {
				for _, fy := range spatialFactors(by, pesY) {
					if fx == 1 && fy == 1 {
						continue
					}
					key := [4]int{int(dx), int(dy), fx, fy}
					if seen[key] {
						continue
					}
					seen[key] = true
					out = append(out, spatialChoice{dimX: dx, dimY: dy, fx: fx, fy: fy})
				}
			}
		}
	}
	// Degenerate: no spatial spreading (tiny layers).
	out = append(out, spatialChoice{dimX: mapping.DimQ, dimY: mapping.DimR, fx: 1, fy: 1})
	return out
}

// spatialFactors picks up to two factors for spreading a bound over an axis
// of the given size: the largest value <= axis, and the best divisor of the
// bound <= axis (avoiding padding waste).
func spatialFactors(bound, axis int) []int {
	if bound <= 1 || axis <= 1 {
		return []int{1}
	}
	full := min(bound, axis)
	// The largest divisor <= full, found among the divisor pairs
	// (d, bound/d) with d <= bound/d: √bound steps, however large the axis.
	div := 1
	for d := 1; d <= bound/d; d++ {
		if bound%d != 0 {
			continue
		}
		if d <= full {
			div = max(div, d)
		}
		if q := bound / d; q <= full {
			div = max(div, q)
		}
	}
	if div == full {
		return []int{full}
	}
	return []int{full, div}
}

func dedupInts(in []int) []int {
	sort.Ints(in)
	out := in[:0]
	prev := -1
	for _, v := range in {
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// baseMapping builds a mapping skeleton with the spatial choice applied,
// filter dims resident at the register file, and all other factors 1.
func baseMapping(l *workload.Layer, sp spatialChoice) *mapping.Mapping {
	m := mapping.New()
	if sp.fx > 1 {
		m.SetFactor(mapping.SpatialX, sp.dimX, sp.fx)
	}
	if sp.fy > 1 {
		m.SetFactor(mapping.SpatialY, sp.dimY, sp.fy)
	}
	// Filter rows/cols live in the PE register files (weight-row
	// stationarity); when R is spread spatially the per-PE residue remains.
	r := mapping.Bound(l, mapping.DimR)
	s := mapping.Bound(l, mapping.DimS)
	if sp.dimY == mapping.DimR && sp.fy > 1 {
		r = num.CeilDiv(r, sp.fy)
	}
	if sp.dimX == mapping.DimR && sp.fx > 1 {
		r = num.CeilDiv(r, sp.fx)
	}
	if sp.dimY == mapping.DimS && sp.fy > 1 {
		s = num.CeilDiv(s, sp.fy)
	}
	m.SetFactor(mapping.RF, mapping.DimR, r)
	m.SetFactor(mapping.RF, mapping.DimS, s)
	return m
}

// setGLBTile sets the GLB-level factor so that the tile covers `tile`
// iterations of the dimension, given the factors already fixed below GLB.
func setGLBTile(m *mapping.Mapping, l *workload.Layer, d mapping.Dim, tile int) {
	//securelint:ignore overflowmul sub-GLB factors multiply to at most the padded dimension bound (tiling-search invariant); this runs in the search hot loop, so the checked multiply is deliberately avoided
	below := m.Factor(mapping.RF, d) * m.Factor(mapping.SpatialX, d) * m.Factor(mapping.SpatialY, d)
	if tile < below {
		tile = below
	}
	m.SetFactor(mapping.GLB, d, num.CeilDiv(tile, below))
}

// permHeuristics are the DRAM-level loop orders tried per tiling, outermost
// first: each makes one datatype maximally stationary off-chip, plus a
// reduction-innermost order that streams ofmaps without partial-sum spills.
var permHeuristics = [][]mapping.Dim{
	// Ofmap stationary: reduction loops innermost, output loops outermost.
	{mapping.DimM, mapping.DimP, mapping.DimQ, mapping.DimC, mapping.DimR, mapping.DimS},
	{mapping.DimP, mapping.DimQ, mapping.DimM, mapping.DimC, mapping.DimR, mapping.DimS},
	// Weight stationary: weight dims outermost, spatial output loops inner.
	{mapping.DimC, mapping.DimM, mapping.DimP, mapping.DimQ, mapping.DimR, mapping.DimS},
	{mapping.DimM, mapping.DimC, mapping.DimP, mapping.DimQ, mapping.DimR, mapping.DimS},
	// Ifmap stationary: ifmap dims outermost, M innermost.
	{mapping.DimC, mapping.DimP, mapping.DimQ, mapping.DimM, mapping.DimR, mapping.DimS},
	{mapping.DimP, mapping.DimQ, mapping.DimC, mapping.DimM, mapping.DimR, mapping.DimS},
}

// sigKey is the DRAM-tiling signature used as the top-k map key. A fixed
// byte array (unlike the string it replaced) is comparable without any
// per-offer allocation.
type sigKey [sigLowBytes + 5*int(mapping.NumDims)]byte

// sigLowBytes is the length of the signature's first part: per dimension,
// the low 16 bits of the GLB tile extent and the low 8 bits of each
// spatial factor.
const sigLowBytes = 4 * int(mapping.NumDims)

// signature captures the DRAM-level tile geometry: GLB tile extents and
// spatial factors per dimension (permutation excluded). Together with the
// layer it determines the whole pre-permutation mapping, so equal signatures
// imply interchangeable candidates up to loop order.
//
// The low bytes of every value come first and the high bytes after them.
// Validate caps layer dimensions and PE axes at 2^20, so a tile extent
// stays below 2^21 and a spatial factor at most 2^20: three bytes hold
// each. Ties in the top-k order break on these bytes, and with the high
// bytes last, tilings whose extents fit the low bytes (every built-in
// layer's) rank exactly as they would without them.
func signature(m *mapping.Mapping) sigKey {
	var b sigKey
	for i, d := range mapping.Dims {
		t := m.TileDim(mapping.GLB, d)
		x, y := m.Factor(mapping.SpatialX, d), m.Factor(mapping.SpatialY, d)
		b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(t), byte(t>>8), byte(x), byte(y)
		h := b[sigLowBytes+5*i:]
		h[0], h[1], h[2], h[3], h[4] = byte(t>>16), byte(x>>8), byte(x>>16), byte(y>>8), byte(y>>16)
	}
	return b
}

// scoreRef is a top-k map value: the entry's score plus an index into the
// payload pool. Keeping the 24-byte score in the map (instead of the whole
// mapping) makes the admission lookup on every offer cheap, while the pool
// stores mappings by value so no admitted offer ever heap-clones one — the
// search's former dominant allocation.
type scoreRef struct {
	cycles, bits int64
	idx          int32 // into topK.pool
}

// payload is a pooled top-k entry body.
type payload struct {
	m mapping.Mapping
	// perm, when non-nil, overrides both PermDRAM and PermGLB of m when the
	// entry is materialised into a Candidate.
	perm []mapping.Dim
}

// topK keeps the best candidate per DRAM-tiling signature and returns the k
// best of those. Distinct signatures (rather than distinct loopnests) keep
// the returned set diverse in *tiling*, which is what the cross-layer
// AuthBlock costs and therefore the annealing neighbourhood (Section 4.3)
// actually respond to; for one tiling only its best permutation survives.
// All ordering ties break on the signature bytes so results are independent
// of map iteration and offer order.
type topK struct {
	k    int
	best map[sigKey]scoreRef
	// pool holds entry bodies; replacements overwrite their slot, prune
	// compacts, so it stays within a small multiple of k.
	pool []payload
	// lows caches the sorted best cycle counts of the k lowest *distinct*
	// signatures (rebuilt lazily when dirty). Counting distinct signatures
	// rather than raw offers matters: repeat offers of one tiling must not
	// make the pruning threshold look "full" before k tilings exist.
	lows  []int64
	dirty bool
}

func newTopK(k int) *topK {
	return &topK{k: k, best: map[sigKey]scoreRef{}}
}

// candidate materialises an entry: one Mapping allocation per returned
// candidate, paid only for the winners rather than per offer.
func (t *topK) candidate(ref scoreRef) Candidate {
	p := t.pool[ref.idx]
	mm := p.m
	if p.perm != nil {
		mm.PermDRAM = p.perm
		mm.PermGLB = p.perm
	}
	return Candidate{Mapping: &mm, Cycles: ref.cycles, OffchipBits: ref.bits}
}

// rankLess is the total candidate order: (cycles, off-chip bits, signature).
func rankLess(aSig sigKey, a scoreRef, bSig sigKey, b scoreRef) bool {
	if a.cycles != b.cycles {
		return a.cycles < b.cycles
	}
	if a.bits != b.bits {
		return a.bits < b.bits
	}
	return bytes.Compare(aSig[:], bSig[:]) < 0
}

// kthCycles returns the best cycle count of the k-th lowest *distinct*
// tiling signature seen so far, and whether k distinct signatures exist yet.
// Pruning against it never loses the best schedule (a pruned tiling's lower
// bound exceeds the k-th distinct tiling's best), and — unlike counting raw
// offers — it cannot over-prune before k distinct tilings have been seen.
func (t *topK) kthCycles() (int64, bool) {
	if len(t.best) < t.k {
		return 0, false
	}
	if t.dirty {
		t.rebuildLows()
	}
	return t.lows[t.k-1], true
}

// rebuildLows recomputes the k lowest per-signature best cycle counts. The
// map is pruned to stay within a small multiple of k, so this is O(k).
func (t *topK) rebuildLows() {
	t.lows = t.lows[:0]
	for _, ref := range t.best {
		t.lows = append(t.lows, ref.cycles)
	}
	slices.Sort(t.lows)
	if len(t.lows) > t.k {
		t.lows = t.lows[:t.k]
	}
	t.dirty = false
}

// admit reports whether a candidate scoring (cycles, bits) under the given
// signature needs storing; the caller builds the entry body only when it
// returns true. Unlike the reference search's offer, a tie against the
// stored candidate is rejected: a signature determines its pre-permutation
// mapping and therefore its deterministic fold winner, so an equal-scored
// re-offer of the same signature is the identical candidate and replacing
// it is a no-op.
func (t *topK) admit(sig sigKey, cycles, bits int64) bool {
	if cur, ok := t.best[sig]; ok {
		return cycles < cur.cycles || (cycles == cur.cycles && bits < cur.bits)
	}
	// New signature: drop it outright if it cannot rank within the top k.
	// It may return later only via a strictly better offer, which passes
	// this gate, so the final top-k is unaffected.
	kth, full := t.kthCycles()
	return !full || cycles <= kth
}

// insert stores an admitted entry under its signature. The mapping is
// copied by value into the pool (reusing a replaced entry's slot), never
// heap-cloned.
func (t *topK) insert(sig sigKey, cycles, bits int64, m *mapping.Mapping, perm []mapping.Dim) {
	if cur, ok := t.best[sig]; ok {
		if cycles < cur.cycles {
			t.dirty = true
		}
		t.pool[cur.idx] = payload{m: *m, perm: perm}
		t.best[sig] = scoreRef{cycles: cycles, bits: bits, idx: cur.idx}
		return
	}
	t.pool = append(t.pool, payload{m: *m, perm: perm})
	t.best[sig] = scoreRef{cycles: cycles, bits: bits, idx: int32(len(t.pool) - 1)}
	t.dirty = true
	if len(t.best) > 4*t.k {
		t.prune()
	}
}

// prune shrinks the map to the k best signatures and compacts the pool.
// Dropped signatures rank below k and per-signature bests never worsen, so
// they could never enter the final top-k with their current candidates.
func (t *topK) prune() {
	all := t.rankedEntries()
	if len(all) > t.k {
		all = all[:t.k]
	}
	pool := make([]payload, 0, len(all))
	t.best = make(map[sigKey]scoreRef, len(all))
	for _, en := range all {
		pool = append(pool, t.pool[en.ref.idx])
		en.ref.idx = int32(len(pool) - 1)
		t.best[en.sig] = en.ref
	}
	t.pool = pool
	t.dirty = true
}

// rankEntry pairs a signature with its score for sorting.
type rankEntry struct {
	sig sigKey
	ref scoreRef
}

func (t *topK) rankedEntries() []rankEntry {
	all := make([]rankEntry, 0, len(t.best))
	for sig, ref := range t.best {
		all = append(all, rankEntry{sig, ref})
	}
	sort.Slice(all, func(i, j int) bool {
		return rankLess(all[i].sig, all[i].ref, all[j].sig, all[j].ref)
	})
	return all
}

func (t *topK) sorted() []Candidate {
	all := t.rankedEntries()
	if len(all) > t.k {
		all = all[:t.k]
	}
	out := make([]Candidate, 0, len(all))
	for _, en := range all {
		out = append(out, t.candidate(en.ref))
	}
	return out
}
