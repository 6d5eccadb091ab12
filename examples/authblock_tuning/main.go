// AuthBlock tuning: visualise the paper's Section 4.2 search space on a
// real cross-layer dependency. The example schedules two consecutive
// ResNet18 layers, extracts the producer's ofmap tiling and the consumer's
// ifmap tiling of the shared tensor, sweeps AuthBlock orientations and
// sizes, and renders the hash/redundant trade-off as an ASCII curve with
// the optimum and the tile-as-an-AuthBlock baseline marked.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

func main() {
	net := workload.ResNet18()
	// layer1.0.conv1 -> layer1.0.conv2: an in-segment pair (indices 1, 2).
	pair := net.CrossLayerPairs()[0]
	prod, cons := net.Layer(pair[0]), net.Layer(pair[1])
	fmt.Printf("cross-layer pair: %s (ofmap %dx%dx%d) -> %s\n\n",
		prod.Name, prod.M, prod.P, prod.Q, cons.Name)

	spec := arch.Base()
	crypto := cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1}
	eff := crypto.EffectiveBytesPerCycle(spec.DRAM.BytesPerCycle)

	search := func(l *workload.Layer) mapper.Candidate {
		out, err := mapper.SearchCachedCtx(context.Background(), mapper.Request{
			Layer: l, PEsX: spec.PEsX, PEsY: spec.PEsY,
			GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
			EffectiveBytesPerCycle: eff, TopK: 1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "authblock_tuning:", err)
			os.Exit(1)
		}
		return out[0]
	}
	mp, mc := search(prod), search(cons)
	fmt.Printf("producer schedule: %s\n", mp.Mapping)
	fmt.Printf("consumer schedule: %s\n\n", mc.Mapping)

	ot := mp.Mapping.OfmapDRAMTiling(prod)
	it := mc.Mapping.IfmapDRAMTiling(cons)
	p := authblock.ProducerGrid{
		C: ot.M, H: ot.P, W: ot.Q,
		TileC: ot.MTile, TileH: ot.PTile, TileW: ot.QTile,
		WritesPerTile: ot.WritesPerTile,
	}
	c := authblock.ConsumerGrid{
		TileC: it.ChTile, WinH: it.HWin, WinW: it.WWin,
		StepH: it.HStep, StepW: it.WStep, OffH: it.OffH, OffW: it.OffW,
		CountC: it.ChCount, CountH: it.HCount, CountW: it.WCount,
		FetchesPerTile: it.FetchesPerTile,
	}
	fmt.Printf("producer tiles: %dx%dx%d over %dx%dx%d (%d tiles)\n",
		p.TileC, p.TileH, p.TileW, p.C, p.H, p.W, p.NumTiles())
	fmt.Printf("consumer windows: ch=%d win=%dx%d step=%dx%d off=%d,%d (%d tiles, halo %d rows)\n\n",
		c.TileC, c.WinH, c.WinW, c.StepH, c.StepW, c.OffH, c.OffW, c.NumTiles(), c.WinH-c.StepH)

	par := authblock.Params{WordBits: prod.WordBits, HashBits: 64}

	// Sweep horizontal sizes up to 64 and plot total extra traffic.
	results, err := authblock.SweepCtx(context.Background(), p, c, authblock.AlongQ, 64, par)
	if err != nil {
		fmt.Fprintln(os.Stderr, "authblock_tuning:", err)
		os.Exit(1)
	}
	var maxTotal int64
	for _, r := range results {
		if t := r.Costs.Total(); t > maxTotal {
			maxTotal = t
		}
	}
	fmt.Println("horizontal sweep (extra traffic per block size; # = 2% of max):")
	for _, r := range results {
		if r.Assignment.U%2 == 1 && r.Assignment.U > 1 {
			continue // print every other size to keep the plot compact
		}
		t := r.Costs.Total()
		bar := strings.Repeat("#", int(50*t/maxTotal))
		fmt.Printf("u=%3d %12d |%s\n", r.Assignment.U, t, bar)
	}

	opt, err := authblock.OptimalCtx(context.Background(), p, c, par)
	if err != nil {
		fmt.Fprintln(os.Stderr, "authblock_tuning:", err)
		os.Exit(1)
	}
	fmt.Printf("\noptimal: %s u=%d -> hash %d + redundant %d = %d extra bits\n",
		opt.Assignment.Orientation, opt.Assignment.U,
		opt.Costs.HashBitsTotal(), opt.Costs.RedundantBits, opt.Costs.Total())

	base, rehashed := authblock.TileAsAuthBlock(p, c, par)
	mode := "direct"
	if rehashed {
		mode = "rehash"
	}
	fmt.Printf("tile-as-an-AuthBlock (%s): %d extra bits\n", mode, base.Total())
	if base.Total() > 0 {
		fmt.Printf("reduction: %.1f%%\n", 100*(1-float64(opt.Costs.Total())/float64(base.Total())))
	}
	if opt.Costs.Total() > base.Total() {
		fmt.Fprintln(os.Stderr, "unexpected: optimal worse than baseline")
		os.Exit(1)
	}
}
