package experiments

import (
	"context"

	"secureloop/internal/authblock"
	"secureloop/internal/cryptoengine"
)

// Fig3 reproduces Figure 3: the area vs average-cycles-per-block trade-off
// of published AES hardware implementations.
func Fig3() Table {
	t := Table{
		Name:   "fig3",
		Title:  "AES implementation trade-off space (area vs cycles per 128b block)",
		Header: []string{"design", "year", "area_kgates", "avg_cycles_per_block"},
	}
	for _, e := range cryptoengine.Figure3Catalog() {
		t.AddRow(e.Name, e.Year, e.AreaKGates, e.AvgCyclesPerBlock)
	}
	return t
}

// Table2 reproduces Table 2: the AES and GF-multiplier unit specifications
// of the three engine microarchitectures.
func Table2() Table {
	t := Table{
		Name:  "table2",
		Title: "AES-GCM engine specifications (cycles / kGates / pJ per unit)",
		Header: []string{"architecture",
			"aes_cycles", "aes_kgates", "aes_pj",
			"gf_cycles", "gf_kgates", "gf_pj",
			"interval_cycles", "bytes_per_cycle"},
	}
	for _, e := range cryptoengine.Architectures() {
		t.AddRow(e.Name,
			e.AES.Cycles, e.AES.AreaKGates, e.AES.EnergyPJ,
			e.GFMult.Cycles, e.GFMult.AreaKGates, e.GFMult.EnergyPJ,
			e.CyclesPerBlock(), e.BytesPerCycle())
	}
	return t
}

// fig9Setup returns the Figure 8/9 example geometry: a 30x30 tensor that is
// one producer tile (h=30, wi=30), read by a misaligned consumer tile_j of
// width wj=20 (the rightmost 20 columns).
func fig9Setup() (authblock.ProducerGrid, authblock.ConsumerGrid, authblock.Params) {
	p := authblock.Whole(1, 30, 30)
	c := authblock.ConsumerGrid{
		TileC: 1,
		WinH:  30, WinW: 20,
		StepH: 30, StepW: 20,
		OffH: 0, OffW: 10, // tile_j starts at column wi-wj = 10
		CountC: 1, CountH: 1, CountW: 1,
		FetchesPerTile: 1,
	}
	// The paper's y-axis is bits with 16-bit elements and 64-bit hashes.
	return p, c, authblock.Params{WordBits: 16, HashBits: 64}
}

// Fig9 reproduces Figure 9: off-chip traffic (redundant, tag, total) when
// accessing the misaligned tile_j, sweeping the AuthBlock size for
// horizontal (u in [1,30]) and vertical (u in [1,900]) orientations.
func Fig9() (horizontal, vertical Table) {
	p, c, par := fig9Setup()
	build := func(name string, o authblock.Orientation, maxU int) Table {
		t := Table{
			Name:   name,
			Title:  "off-chip traffic vs AuthBlock size (" + o.String() + ")",
			Header: []string{"u", "redundant_bits", "tag_bits", "total_bits"},
		}
		// A background sweep cannot be cancelled, so it cannot fail.
		sweep, _ := authblock.SweepCtx(context.Background(), p, c, o, maxU, par)
		for _, r := range sweep {
			// The figure counts traffic for *accessing tile_j*: tag reads
			// plus redundant reads (hash writes on the producer side are
			// not part of the access).
			tag := r.Costs.HashReadBits
			red := r.Costs.RedundantBits
			t.AddRow(r.Assignment.U, red, tag, red+tag)
		}
		return t
	}
	return build("fig9-horizontal", authblock.AlongQ, 30),
		build("fig9-vertical", authblock.AlongP, 900)
}
