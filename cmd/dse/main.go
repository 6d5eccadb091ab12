// Command dse runs the design-space exploration of the paper's Section 5.3:
// it sweeps PE-array shapes, global-buffer sizes and cryptographic-engine
// configurations on a workload, and reports every design point's area,
// latency and slowdown with the Pareto front marked (Figure 16).
//
// Usage:
//
//	dse [-workload alexnet] [-iters 200] [-guided] [-epsilon 0] [-pareto-only]
//	    [-prune] [-csv out.csv] [-progress]
//	    [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -guided switches every loopnest search to the guided mode: the same
// lower-bound-guided best-first search, with cross-design-point warm starts
// and the -epsilon relaxation. The default exhaustive mode runs that
// search cold and exact on every layer. At the default -epsilon 0 the
// guided mode matches the exhaustive one except on layers whose stride
// exceeds the filter extent (see DESIGN.md §12).
// -prune turns on dominance pruning: a cheap bound pre-pass plus a
// streaming Pareto front let the sweep skip design points that cannot
// reach the front, and the output (the front itself, byte-identical to the
// unpruned sweep's) prints with per-point skip events under -progress.
// -progress streams one line per resolved design point to stderr; pruned
// and store-answered points appear with their outcome in parentheses, and
// the Done counter stays monotone. Ctrl-C cancels the sweep: no new design
// points launch, in-flight points stop at their next stage boundary, and
// the error names the interrupted stage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/dse"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/prof"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "alexnet", "workload: alexnet, resnet18, mobilenetv2, vgg16")
		iters        = flag.Int("iters", 200, "annealing iterations per design point")
		guided       = flag.Bool("guided", false, "use the guided loopnest search (at epsilon 0 byte-identical to exhaustive except on layers whose stride exceeds the filter extent)")
		epsilon      = flag.Float64("epsilon", 0, "guided-search relaxation: allowed per-rank cycle regression (e.g. 0.01)")
		paretoOnly   = flag.Bool("pareto-only", false, "print only the Pareto front")
		csvPath      = flag.String("csv", "", "write the sweep as CSV")
		progress     = flag.Bool("progress", false, "stream per-design-point progress to stderr")
		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		storeDir     = flag.String("store", "", "persistent result-store directory: a warm rerun of the sweep replays byte-identical design points from disk")
		prune        = flag.Bool("prune", false, "dominance pruning: skip design points whose (area, cycle lower bound) is dominated; prints the Pareto front (byte-identical to the unpruned sweep's)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var observer obs.Observer
	if *progress {
		observer = obs.NewLogger(os.Stderr)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	net, err := workload.ByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	specs, cryptos := dse.Figure16Space(arch.Base())

	fmt.Fprintf(os.Stderr, "evaluating %d design points...\n", len(specs)*len(cryptos))
	sweepOpts := dse.Options{AnnealIterations: *iters, Observe: observer, Prune: *prune}
	if *guided {
		sweepOpts.Mapper = mapper.Options{Mode: mapper.Guided, Epsilon: *epsilon}
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dse: store close:", err)
			}
		}()
		sweepOpts.Store = st
	}
	res, err := dse.Sweep(ctx, net, specs, cryptos, core.CryptOptCross, sweepOpts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "dse: interrupted: %v\n", err)
			os.Exit(130)
		}
		fatal(err)
	}
	points := res.Points
	if *prune {
		s := res.Stats
		fmt.Fprintf(os.Stderr,
			"pruned sweep: %d point(s): %d evaluated (%d store-answered), %d pruned, %d deferred (%d re-evaluated)\n",
			s.Points, s.FullEvals, s.StoreHits, s.Pruned, s.Deferred, s.Reevaluated)
		points = res.Front // every front point carries Pareto=true
	}

	var csv strings.Builder
	csv.WriteString("design,area_mm2,cycles,slowdown,energy_uj,pareto\n")
	fmt.Printf("%-38s %10s %12s %10s %12s %7s\n", "design", "area_mm2", "cycles", "slowdown", "energy_uJ", "pareto")
	for _, p := range points {
		if *paretoOnly && !p.Pareto {
			continue
		}
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		fmt.Printf("%-38s %10.3f %12d %10.3f %12.3f %7s\n",
			p.Label(), p.AreaMM2, p.Cycles, p.Slowdown(), p.EnergyPJ/1e6, mark)
		fmt.Fprintf(&csv, "%s,%.4f,%d,%.4f,%.4f,%v\n",
			p.Label(), p.AreaMM2, p.Cycles, p.Slowdown(), p.EnergyPJ/1e6, p.Pareto)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dse:", err)
	os.Exit(1)
}
