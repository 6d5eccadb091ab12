package core

import (
	"secureloop/internal/authblock"
	"secureloop/internal/mapping"
	"secureloop/internal/workload"
)

// producerGrid converts a layer's DRAM-level ofmap tiling into the
// authblock producer view of the shared tensor.
func producerGrid(l *workload.Layer, m *mapping.Mapping) authblock.ProducerGrid {
	ot := m.OfmapDRAMTiling(l)
	return authblock.ProducerGrid{
		C: ot.M, H: ot.P, W: ot.Q,
		TileC: ot.MTile, TileH: ot.PTile, TileW: ot.QTile,
		WritesPerTile: ot.WritesPerTile,
	}
}

// consumerGrid converts a layer's DRAM-level ifmap tiling into the
// authblock consumer view. The grid is interpreted against the *producer's*
// tensor extents during evaluation, which clips windows exactly as the
// accelerator does (zero padding is generated on chip and never fetched).
func consumerGrid(l *workload.Layer, m *mapping.Mapping) authblock.ConsumerGrid {
	it := m.IfmapDRAMTiling(l)
	return authblock.ConsumerGrid{
		TileC: it.ChTile,
		WinH:  it.HWin, WinW: it.WWin,
		StepH: it.HStep, StepW: it.WStep,
		OffH: it.OffH, OffW: it.OffW,
		CountC: it.ChCount, CountH: it.HCount, CountW: it.WCount,
		FetchesPerTile: it.FetchesPerTile,
	}
}
