package mapping

import (
	"secureloop/internal/num"
	"secureloop/internal/workload"
)

// OfmapTiling describes how a producer mapping partitions its ofmap tensor
// (M x P x Q, channel-major) into DRAM-level tiles. AuthBlock assignment
// lays authentication blocks over these producer tiles as the hashes are
// computed while the ofmap is generated (paper Section 4.2).
type OfmapTiling struct {
	// M, P, Q are the tensor extents (channels, rows, cols).
	M, P, Q int
	// MTile, PTile, QTile are the tile extents.
	MTile, PTile, QTile int
	// MCount, PCount, QCount are the tile counts per dimension.
	MCount, PCount, QCount int
	// WritesPerTile is how many times each tile region crosses off-chip
	// while being produced (1 unless partial sums spill).
	WritesPerTile int64
}

// NumTiles returns the total tile count.
func (o OfmapTiling) NumTiles() int { return num.MulInt(num.MulInt(o.MCount, o.PCount), o.QCount) }

// TileElems returns the element count of one (full) tile.
func (o OfmapTiling) TileElems() int { return num.MulInt(num.MulInt(o.MTile, o.PTile), o.QTile) }

// OfmapDRAMTiling extracts the producer-side tile organisation from a
// mapping.
func (m *Mapping) OfmapDRAMTiling(layer *workload.Layer) OfmapTiling {
	mt := min(m.TileDim(GLB, DimM), layer.M)
	pt := min(m.TileDim(GLB, DimP), layer.P)
	qt := min(m.TileDim(GLB, DimQ), layer.Q)
	loops := m.dramLoops(layer)
	v := visits(layer, workload.Ofmap, loops)
	n := distinctTiles(layer, workload.Ofmap, loops)
	w := int64(1)
	if n > 0 {
		w = v / n
		if w < 1 {
			w = 1
		}
	}
	return OfmapTiling{
		M: layer.M, P: layer.P, Q: layer.Q,
		MTile: mt, PTile: pt, QTile: qt,
		MCount:        num.CeilDiv(layer.M, mt),
		PCount:        num.CeilDiv(layer.P, pt),
		QCount:        num.CeilDiv(layer.Q, qt),
		WritesPerTile: w,
	}
}

// IfmapTiling describes how a consumer mapping reads a tensor — the
// producer's ofmap — as its ifmap, in the *tensor's* coordinate space
// (channels x rows x cols). Consecutive spatial tiles are convolution
// windows: they step by Step but extend over Win, so they overlap whenever
// Win > Step; the overlap is the halo of Section 3.2.2. Tiles are clipped
// to the tensor extents (zero padding is materialised on the fly and never
// read from DRAM).
type IfmapTiling struct {
	// Ch, H, W are the tensor extents (channels, rows, cols). For a
	// consumer of a producer's ofmap, Ch = producer M, H = producer P,
	// W = producer Q.
	Ch, H, W int
	// ChTile is the channels per tile; ChCount the channel-tile count.
	ChTile, ChCount int
	// HWin/WWin are the spatial window extents of a tile.
	HWin, WWin int
	// HStep/WStep are the distances between consecutive tile origins.
	HStep, WStep int
	// OffH/OffW locate the first tile origin (negative when padding
	// precedes the tensor).
	OffH, OffW int
	// HCount/WCount are the spatial tile counts.
	HCount, WCount int
	// FetchesPerTile is how many times each tile is re-read from DRAM
	// (temporal revisits under irrelevant outer loops).
	FetchesPerTile int64
}

// NumTiles returns the total tile count.
func (i IfmapTiling) NumTiles() int { return num.MulInt(num.MulInt(i.ChCount, i.HCount), i.WCount) }

// TileRowRange returns the clipped tensor row interval [lo, hi) of the
// spatial tile with row index ti.
func (i IfmapTiling) TileRowRange(ti int) (lo, hi int) {
	lo = i.OffH + num.MulInt(ti, i.HStep)
	hi = lo + i.HWin
	if lo < 0 {
		lo = 0
	}
	if hi > i.H {
		hi = i.H
	}
	return lo, hi
}

// IfmapDRAMTiling extracts the consumer-side view of its ifmap tensor from
// a mapping.
func (m *Mapping) IfmapDRAMTiling(layer *workload.Layer) IfmapTiling {
	ch := DimC
	if layer.Depthwise {
		ch = DimM
	}
	chTile := min(m.TileDim(GLB, ch), Bound(layer, ch))
	pt := min(m.TileDim(GLB, DimP), layer.P)
	qt := min(m.TileDim(GLB, DimQ), layer.Q)
	loops := m.dramLoops(layer)
	v := visits(layer, workload.Ifmap, loops)
	n := distinctTiles(layer, workload.Ifmap, loops)
	f := int64(1)
	if n > 0 {
		f = v / n
		if f < 1 {
			f = 1
		}
	}
	return IfmapTiling{
		Ch: Bound(layer, ch), H: layer.InH(), W: layer.InW(),
		ChTile:         chTile,
		ChCount:        num.CeilDiv(Bound(layer, ch), chTile),
		HWin:           num.MulInt(pt-1, layer.StrideH) + layer.R,
		WWin:           num.MulInt(qt-1, layer.StrideW) + layer.S,
		HStep:          num.MulInt(pt, layer.StrideH),
		WStep:          num.MulInt(qt, layer.StrideW),
		OffH:           -layer.PadH,
		OffW:           -layer.PadW,
		HCount:         num.CeilDiv(layer.P, pt),
		WCount:         num.CeilDiv(layer.Q, qt),
		FetchesPerTile: f,
	}
}

// WeightTiling describes the weight tensor's DRAM tile organisation. Weight
// tiles never overlap and have no cross-layer consumer, so
// tile-as-an-AuthBlock is optimal up to hash granularity; the authblock
// package only needs the tile size and fetch count.
type WeightTiling struct {
	TileElems  int64
	NumTiles   int64
	FetchesPer int64
}

// WeightDRAMTiling extracts the weight tile organisation from a mapping.
func (m *Mapping) WeightDRAMTiling(layer *workload.Layer) WeightTiling {
	loops := m.dramLoops(layer)
	v := visits(layer, workload.Weight, loops)
	n := distinctTiles(layer, workload.Weight, loops)
	f := int64(1)
	if n > 0 {
		f = v / n
		if f < 1 {
			f = 1
		}
	}
	return WeightTiling{
		TileElems:  m.GLBTileElems(layer, workload.Weight),
		NumTiles:   n,
		FetchesPer: f,
	}
}
