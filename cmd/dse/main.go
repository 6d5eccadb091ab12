// Command dse runs the design-space exploration of the paper's Section 5.3:
// it sweeps PE-array shapes, global-buffer sizes and cryptographic-engine
// configurations on a workload, and reports every design point's area,
// latency and slowdown with the Pareto front marked (Figure 16). The flags
// fill a service.SweepWire, the body of the daemon's /v1/sweep, which is
// resolved, defaulted, validated and computed in process exactly as
// cmd/secured serves it.
//
// Usage:
//
//	dse [-workload alexnet] [-iters 200] [-guided] [-epsilon 0]
//	    [-prune] [-csv out.csv] [-progress] [-store dir]
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
// reach the front, and the output is the front itself in ascending area,
// byte-identical to the unpruned sweep's (the daemon's "front": true).
// -progress streams one line per resolved design point to stderr; pruned
// and store-answered points appear with their outcome in parentheses, and
// the Done counter stays monotone. Ctrl-C cancels the sweep: no new design
// points launch, in-flight points stop at their next stage boundary, and
// the error names the interrupted stage.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"secureloop/internal/obs"
	"secureloop/internal/prof"
	"secureloop/internal/service"
	"secureloop/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "dse: interrupted:", err)
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "dse:", err)
		os.Exit(1)
	}
}

// run is the command body, factored out of main so tests can drive it with
// their own context, flags and stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	workloadName := fs.String("workload", "alexnet", "workload: alexnet, resnet18, mobilenetv2, vgg16")
	iters := fs.Int("iters", 200, "annealing iterations per design point")
	guided := fs.Bool("guided", false, "use the guided loopnest search (at epsilon 0 byte-identical to exhaustive except on layers whose stride exceeds the filter extent)")
	epsilon := fs.Float64("epsilon", 0, "guided-search relaxation: allowed per-rank cycle regression (e.g. 0.01)")
	csvPath := fs.String("csv", "", "write the sweep as CSV")
	progress := fs.Bool("progress", false, "stream per-design-point progress to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	storeDir := fs.String("store", "", "persistent result-store directory: a warm rerun of the sweep replays byte-identical design points from disk")
	prune := fs.Bool("prune", false, "dominance pruning: skip design points whose (area, cycle lower bound) is dominated; prints the Pareto front (byte-identical to the unpruned sweep's)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	network, err := json.Marshal(*workloadName)
	if err != nil {
		return err
	}
	w := service.SweepWire{Network: network, AnnealIterations: *iters, Front: *prune}
	if *guided {
		w.Mapper = &service.MapperWire{Mode: "guided", Epsilon: *epsilon}
	}
	resolved, err := w.Resolve()
	if err != nil {
		return err
	}
	req := resolved.Defaulted()
	if err := req.Validate(); err != nil {
		return err
	}

	var cfg service.Config
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			return err
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dse: store close:", err)
			}
		}()
		cfg.Store = st
	}
	var observer obs.Observer
	if *progress {
		observer = obs.NewLogger(os.Stderr)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProf()

	fmt.Fprintf(os.Stderr, "evaluating %d design points...\n", len(req.Specs)*len(req.Cryptos))
	res, _, s, err := service.New(cfg).SweepBody(ctx, &req, observer)
	if err != nil {
		return err
	}
	if *prune {
		fmt.Fprintf(os.Stderr,
			"pruned sweep: %d point(s): %d evaluated (%d store-answered), %d pruned, %d deferred (%d re-evaluated)\n",
			s.Points, s.FullEvals, s.StoreHits, s.Pruned, s.Deferred, s.Reevaluated)
	}

	var csv strings.Builder
	csv.WriteString("design,area_mm2,cycles,slowdown,energy_uj,pareto\n")
	fmt.Fprintf(stdout, "%-38s %10s %12s %10s %12s %7s\n", "design", "area_mm2", "cycles", "slowdown", "energy_uJ", "pareto")
	for _, p := range res.Points {
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		fmt.Fprintf(stdout, "%-38s %10.3f %12d %10.3f %12.3f %7s\n",
			p.Label, p.AreaMM2, p.Cycles, p.Slowdown, p.EnergyPJ/1e6, mark)
		fmt.Fprintf(&csv, "%s,%.4f,%d,%.4f,%.4f,%v\n",
			p.Label, p.AreaMM2, p.Cycles, p.Slowdown, p.EnergyPJ/1e6, p.Pareto)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	return nil
}
