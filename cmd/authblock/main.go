// Command authblock explores the authentication-block assignment space for
// a producer/consumer tiling mismatch: it sweeps block sizes per
// orientation, prints the cost curve (hash reads, redundant reads), reports
// the optimum, and compares it against the tile-as-an-AuthBlock baseline —
// an interactive version of the paper's Figure 9 analysis for arbitrary
// geometries.
//
// Usage (defaults reproduce the paper's Figure 8/9 example):
//
//	authblock [-tensor 1x30x30] [-ptile 1x30x30] \
//	          [-cwin 30x20] [-cstep 30x20] [-coff 0x10] [-cch 1] \
//	          [-word 16] [-hash 64] [-max 64] [-sweep horizontal]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"secureloop/internal/authblock"
	"secureloop/internal/num"
)

func main() {
	var (
		tensor = flag.String("tensor", "1x30x30", "tensor dims CxHxW")
		ptile  = flag.String("ptile", "1x30x30", "producer tile dims CxHxW")
		cwin   = flag.String("cwin", "30x20", "consumer window HxW")
		cstep  = flag.String("cstep", "30x20", "consumer step HxW")
		coff   = flag.String("coff", "0x10", "consumer offset HxW (may be negative)")
		cch    = flag.Int("cch", 1, "consumer channels per tile")
		word   = flag.Int("word", 16, "element bits")
		hash   = flag.Int("hash", 64, "hash (tag) bits")
		maxU   = flag.Int("max", 64, "sweep upper bound for block size")
		sweepO = flag.String("sweep", "horizontal", "orientation to print the sweep for: horizontal, vertical, channel")
	)
	flag.Parse()

	// Ctrl-C cancels the sweep between block-size batches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var C, H, W int
	mustScan(*tensor, "%dx%dx%d", &C, &H, &W)
	var tc, th, tw int
	mustScan(*ptile, "%dx%dx%d", &tc, &th, &tw)
	var winH, winW, stepH, stepW, offH, offW int
	mustScan(*cwin, "%dx%d", &winH, &winW)
	mustScan(*cstep, "%dx%d", &stepH, &stepW)
	mustScan(*coff, "%dx%d", &offH, &offW)

	p := authblock.ProducerGrid{C: C, H: H, W: W, TileC: tc, TileH: th, TileW: tw, WritesPerTile: 1}
	c := authblock.ConsumerGrid{
		TileC: *cch,
		WinH:  winH, WinW: winW,
		StepH: stepH, StepW: stepW,
		OffH: offH, OffW: offW,
		CountC:         num.CeilDiv(C, *cch),
		CountH:         countAlong(H, offH, stepH, winH),
		CountW:         countAlong(W, offW, stepW, winW),
		FetchesPerTile: 1,
	}
	if err := authblock.ValidatePair(p, c); err != nil {
		fatal(err)
	}
	par := authblock.Params{WordBits: *word, HashBits: *hash}

	var orient authblock.Orientation
	switch *sweepO {
	case "horizontal":
		orient = authblock.AlongQ
	case "vertical":
		orient = authblock.AlongP
	case "channel":
		orient = authblock.AlongC
	default:
		fatal(fmt.Errorf("bad -sweep %q", *sweepO))
	}

	fmt.Printf("producer: %dx%dx%d tensor, %dx%dx%d tiles (%d tiles)\n",
		C, H, W, tc, th, tw, p.NumTiles())
	fmt.Printf("consumer: %d tiles (ch=%d win=%dx%d step=%dx%d off=%dx%d)\n\n",
		c.NumTiles(), *cch, winH, winW, stepH, stepW, offH, offW)

	fmt.Printf("%s sweep (u = 1..%d):\n", orient, *maxU)
	fmt.Printf("%6s %14s %14s %14s\n", "u", "redundant_bits", "tag_bits", "total_bits")
	sweep, err := authblock.SweepCtx(ctx, p, c, orient, *maxU, par)
	if err != nil {
		fatal(err)
	}
	for _, r := range sweep {
		total := r.Costs.RedundantBits + r.Costs.HashReadBits
		fmt.Printf("%6d %14d %14d %14d\n", r.Assignment.U, r.Costs.RedundantBits, r.Costs.HashReadBits, total)
	}

	opt, err := authblock.OptimalCtx(ctx, p, c, par)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\noptimal assignment: %s, u=%d (hash %d bits, redundant %d bits, total %d bits)\n",
		opt.Assignment.Orientation, opt.Assignment.U,
		opt.Costs.HashBitsTotal(), opt.Costs.RedundantBits, opt.Costs.Total())

	base, rehashed := authblock.TileAsAuthBlock(p, c, par)
	strategy := "direct (whole-tile fetches)"
	if rehashed {
		strategy = "rehash"
	}
	fmt.Printf("tile-as-an-AuthBlock baseline: %s, total %d bits\n", strategy, base.Total())
	if base.Total() > 0 {
		fmt.Printf("optimal saves %.1f%% of the baseline's extra traffic\n",
			100*(1-float64(opt.Costs.Total())/float64(base.Total())))
	}
}

// countAlong counts the consumer windows along one axis: the positions off,
// off+step, ... below extent whose window reaches into the tensor, at least
// one. A non-positive step never advances, so it counts nothing and returns
// 0; ConsumerGrid.Validate then rejects the step.
func countAlong(extent, off, step, win int) int {
	if step <= 0 {
		return 0
	}
	n := 0
	for pos := off; pos < extent; pos += step {
		if pos+win > 0 {
			n++
		}
		if n > 1<<20 {
			break
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func mustScan(s, format string, args ...interface{}) {
	if _, err := fmt.Sscanf(s, format, args...); err != nil {
		fatal(fmt.Errorf("cannot parse %q: %w", s, err))
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "authblock: interrupted:", err)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "authblock:", err)
	os.Exit(1)
}
