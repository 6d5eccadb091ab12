// Command authblock explores the authentication-block assignment space for
// a producer/consumer tiling mismatch: it sweeps block sizes per
// orientation, prints the cost curve (hash reads, redundant reads), reports
// the optimum, and compares it against the tile-as-an-AuthBlock baseline —
// an interactive version of the paper's Figure 9 analysis for arbitrary
// geometries. The flags fill a service.AuthBlockWire, the body of the
// daemon's /v1/authblock, which is resolved, validated and computed in
// process exactly as cmd/secured serves it.
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
	"io"
	"os"
	"os/signal"

	"secureloop/internal/num"
	"secureloop/internal/service"
)

func main() {
	// Ctrl-C cancels the sweep between block-size batches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "authblock: interrupted:", err)
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "authblock:", err)
		os.Exit(1)
	}
}

// run is the command body, factored out of main so tests can drive it with
// their own context, flags and stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("authblock", flag.ContinueOnError)
	tensor := fs.String("tensor", "1x30x30", "tensor dims CxHxW")
	ptile := fs.String("ptile", "1x30x30", "producer tile dims CxHxW")
	cwin := fs.String("cwin", "30x20", "consumer window HxW")
	cstep := fs.String("cstep", "30x20", "consumer step HxW")
	coff := fs.String("coff", "0x10", "consumer offset HxW (may be negative)")
	cch := fs.Int("cch", 1, "consumer channels per tile")
	word := fs.Int("word", 16, "element bits")
	hash := fs.Int("hash", 64, "hash (tag) bits")
	maxU := fs.Int("max", 64, "sweep upper bound for block size")
	sweepO := fs.String("sweep", "horizontal", "orientation to print the sweep for: horizontal, vertical, channel")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := service.AuthBlockWire{WordBits: *word, HashBits: *hash, Orientation: *sweepO, MaxU: *maxU}
	p, c := &w.Producer, &w.Consumer
	for _, f := range []struct {
		flag, format string
		dst          []any
	}{
		{*tensor, "%dx%dx%d", []any{&p.C, &p.H, &p.W}},
		{*ptile, "%dx%dx%d", []any{&p.TileC, &p.TileH, &p.TileW}},
		{*cwin, "%dx%d", []any{&c.WinH, &c.WinW}},
		{*cstep, "%dx%d", []any{&c.StepH, &c.StepW}},
		{*coff, "%dx%d", []any{&c.OffH, &c.OffW}},
	} {
		if _, err := fmt.Sscanf(f.flag, f.format, f.dst...); err != nil {
			return fmt.Errorf("cannot parse %q: %w", f.flag, err)
		}
	}
	p.WritesPerTile, c.FetchesPerTile = 1, 1
	c.TileC = *cch
	c.CountC = num.CeilDiv(p.C, *cch)
	c.CountH = countAlong(p.H, c.OffH, c.StepH, c.WinH)
	c.CountW = countAlong(p.W, c.OffW, c.StepW, c.WinW)

	req, err := w.Resolve()
	if err != nil {
		return err
	}
	if err := req.Validate(); err != nil {
		return err
	}
	res, _, _, err := service.New(service.Config{}).AuthBlockBody(ctx, req, nil)
	if err != nil {
		return err
	}

	pg, cg := req.Producer, req.Consumer
	fmt.Fprintf(stdout, "producer: %dx%dx%d tensor, %dx%dx%d tiles (%d tiles)\n",
		pg.C, pg.H, pg.W, pg.TileC, pg.TileH, pg.TileW, pg.NumTiles())
	fmt.Fprintf(stdout, "consumer: %d tiles (ch=%d win=%dx%d step=%dx%d off=%dx%d)\n\n",
		cg.NumTiles(), cg.TileC, cg.WinH, cg.WinW, cg.StepH, cg.StepW, cg.OffH, cg.OffW)
	if req.MaxU > 0 {
		fmt.Fprintf(stdout, "%s sweep (u = 1..%d):\n", res.SweepOrientation, req.MaxU)
		fmt.Fprintf(stdout, "%6s %14s %14s %14s\n", "u", "redundant_bits", "tag_bits", "total_bits")
		for _, e := range res.Sweep {
			fmt.Fprintf(stdout, "%6d %14d %14d %14d\n",
				e.U, e.Costs.RedundantBits, e.Costs.HashReadBits, e.Costs.RedundantBits+e.Costs.HashReadBits)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "optimal assignment: %s, u=%d (hash %d bits, redundant %d bits, total %d bits)\n",
		res.Optimal.Orientation, res.Optimal.U,
		res.Costs.HashWriteBits+res.Costs.HashReadBits, res.Costs.RedundantBits, res.Costs.TotalBits)
	strategy := "direct (whole-tile fetches)"
	if res.BaselineRehash {
		strategy = "rehash"
	}
	fmt.Fprintf(stdout, "tile-as-an-AuthBlock baseline: %s, total %d bits\n", strategy, res.Baseline.TotalBits)
	if res.Baseline.TotalBits > 0 {
		fmt.Fprintf(stdout, "optimal saves %.1f%% of the baseline's extra traffic\n",
			100*(1-float64(res.Costs.TotalBits)/float64(res.Baseline.TotalBits)))
	}
	return nil
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
