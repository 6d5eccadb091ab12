package mapper

import (
	"math"

	"secureloop/internal/mapping"
	"secureloop/internal/memo"
)

// The warm-start store remembers the winning tilings of completed guided
// searches under a *canonical layer-shape key* — deliberately coarser than
// the exact-result cache in cache.go. Output extents and bandwidth are
// bucketed by power of two and the buffer capacities are excluded entirely,
// so a DSE sweep stepping through neighbouring design points (larger GLB,
// different crypto bandwidth) and repeated near-identical layers across
// networks hit the store and seed the next search with the previous
// winner's tiling. Hits are hints, never answers: seeds are snapped onto
// the new request's lattice and re-checked for capacity, so a stale or
// mismatched seed costs one evaluation and changes nothing else (at
// Epsilon = 0 the result is provably independent of the store contents).

// Seed is one warm-start hint: the spatial choice and the GLB tile extents
// of a previous winner.
type Seed struct {
	// DimX/FX and DimY/FY give the spatial spreading in normalized form:
	// dimension -1 with factor 1 when the axis is unspread.
	DimX, DimY mapping.Dim
	FX, FY     int
	// Tiles are the GLB tile iteration counts for C, M, P, Q (tiledDims
	// order).
	Tiles [4]int32
}

// spatialKey returns the seed's normalized spatial identity.
func (s Seed) spatialKey() [4]int {
	return [4]int{int(s.DimX), s.FX, int(s.DimY), s.FY}
}

// normKey normalizes a spatialChoice the same way seedFromMapping does: an
// axis with factor 1 carries no dimension (baseMapping ignores it), so all
// such choices collapse onto one key.
func (sp spatialChoice) normKey() [4]int {
	k := [4]int{-1, 1, -1, 1}
	if sp.fx > 1 {
		k[0], k[1] = int(sp.dimX), sp.fx
	}
	if sp.fy > 1 {
		k[2], k[3] = int(sp.dimY), sp.fy
	}
	return k
}

// seedFromMapping extracts the warm-start seed of one winning mapping.
func seedFromMapping(m *mapping.Mapping) Seed {
	sd := Seed{DimX: -1, FX: 1, DimY: -1, FY: 1}
	for _, d := range mapping.Dims {
		if f := m.Factor(mapping.SpatialX, d); f > 1 {
			sd.DimX, sd.FX = d, f
		}
		if f := m.Factor(mapping.SpatialY, d); f > 1 {
			sd.DimY, sd.FY = d, f
		}
	}
	for i, d := range tiledDims {
		sd.Tiles[i] = int32(m.TileDim(mapping.GLB, d))
	}
	return sd
}

// warmKey is the canonical layer-shape signature. Channel counts, filter
// extents, strides and the PE array shape are exact (they change the search
// space structurally); output extents P/Q and the effective bandwidth are
// log2-bucketed (neighbouring values want the same tilings, up to
// snapping); GLB/RF capacities are excluded (capacity only gates
// feasibility, which the seed re-check handles).
type warmKey struct {
	c, m, r, s       int
	p2, q2           int8
	strideH, strideW int
	depthwise        bool
	wordBits         int
	pesX, pesY       int
	bw2              int16
}

func log2Bucket(v int) int8 {
	b := int8(0)
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

func warmKeyFor(req Request) warmKey {
	l := req.Layer
	bw2 := int16(0)
	if req.EffectiveBytesPerCycle > 0 {
		bw2 = int16(math.Floor(math.Log2(req.EffectiveBytesPerCycle)))
	}
	return warmKey{
		c: l.C, m: l.M, r: l.R, s: l.S,
		p2: log2Bucket(l.P), q2: log2Bucket(l.Q),
		strideH: l.StrideH, strideW: l.StrideW,
		depthwise: l.Depthwise, wordBits: l.WordBits,
		pesX: req.PEsX, pesY: req.PEsY,
		bw2: bw2,
	}
}

// warmMaxSeeds caps the seeds stored per key. It matches cacheTopK so a
// full cached search's distinct winners all seed the next neighbour.
const warmMaxSeeds = cacheTopK

// warmMemo holds the seeds per canonical shape: 16 shards of 64 keys. FIFO
// eviction keeps the store deterministic under a serial sweep (no
// access-order state) and is close enough to LRU for sweeps that revisit
// shapes in passes.
var warmMemo = memo.New[warmKey, []Seed](warmCapacity, hashWarmKey)

const warmCapacity = 1024

// hashWarmKey picks the key's shard, and with it the FIFO queue the key
// competes in for eviction.
func hashWarmKey(k warmKey) uint64 {
	v := [...]uint64{
		uint64(k.c), uint64(k.m), uint64(k.r), uint64(k.s), uint64(k.p2), uint64(k.q2),
		uint64(k.strideH), uint64(k.strideW), uint64(k.wordBits),
		uint64(k.pesX), uint64(k.pesY), uint64(k.bw2), 1,
	}
	n := len(v) - 1
	if k.depthwise {
		n++
	}
	return memo.Hash(v[:n]...)
}

// warmSeeds returns the stored seeds for the request's canonical shape, or
// nil. The returned slice is immutable: warmPut replaces entries wholesale.
func warmSeeds(req Request) []Seed {
	seeds, _ := warmMemo.Get(warmKeyFor(req))
	return seeds
}

// warmPut records a completed search's winners under the canonical shape
// key, evicting the oldest key of its shard when the shard is full.
func warmPut(req Request, out []Candidate) {
	n := len(out)
	if n == 0 {
		return
	}
	if n > warmMaxSeeds {
		n = warmMaxSeeds
	}
	seeds := make([]Seed, n)
	for i := 0; i < n; i++ {
		seeds[i] = seedFromMapping(out[i].Mapping)
	}
	warmMemo.Set(warmKeyFor(req), seeds)
}
