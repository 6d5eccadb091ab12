// Command secureloop schedules a DNN workload on a secure accelerator
// design and reports latency, energy and authentication-traffic statistics.
//
// Usage:
//
//	secureloop -workload mobilenetv2 -engine parallel -count 1 \
//	           -alg crypt-opt-cross [-pe 14x12] [-glb 131072] \
//	           [-dram lpddr4-64] [-topk 6] [-iters 1000] [-seed 1] \
//	           [-guided] [-epsilon 0] [-layers] [-csv out.csv] [-compare]
//
// -compare runs all of Table 1's algorithms plus the unsecure baseline and
// prints the normalized-latency comparison of Figure 11a for the chosen
// design.
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
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/report"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "alexnet", "workload: alexnet, resnet18, mobilenetv2, vgg16, or a .json file")
		engineName   = flag.String("engine", "parallel", "AES-GCM engine: pipelined, parallel, serial")
		count        = flag.Int("count", 1, "engines per datatype")
		algName      = flag.String("alg", "crypt-opt-cross", "algorithm: unsecure, crypt-tile-single, crypt-opt-single, crypt-opt-cross")
		pe           = flag.String("pe", "14x12", "PE array, e.g. 14x12")
		glb          = flag.Int("glb", 131*1024, "global buffer bytes")
		dram         = flag.String("dram", "lpddr4-64", "DRAM: lpddr4-64, lpddr4-128, hbm2")
		topK         = flag.Int("topk", 6, "top-k schedules per layer for annealing")
		iters        = flag.Int("iters", 1000, "annealing iterations")
		seed         = flag.Int64("seed", 1, "annealing seed")
		guided       = flag.Bool("guided", false, "use the guided loopnest search (at epsilon 0 byte-identical to exhaustive except on layers whose stride exceeds the filter extent)")
		epsilon      = flag.Float64("epsilon", 0, "guided-search relaxation: allowed per-rank cycle regression (e.g. 0.01)")
		layers       = flag.Bool("layers", false, "print per-layer table")
		csvPath      = flag.String("csv", "", "write per-layer CSV to this path")
		compare      = flag.Bool("compare", false, "compare all scheduling algorithms")
		objective    = flag.String("objective", "latency", "fine-tuning objective: latency or edp")
		storeDir     = flag.String("store", "", "persistent result-store directory: identical runs replay byte-identical schedules from disk")
	)
	flag.Parse()

	// Ctrl-C cancels the schedule at its next stage boundary; the error
	// printed on exit names the stage that was interrupted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	net, err := loadWorkload(*workloadName)
	if err != nil {
		fatal(err)
	}
	engine, err := cryptoengine.ByName(*engineName)
	if err != nil {
		fatal(err)
	}
	crypto, err := cryptoengine.NewConfig(engine, *count)
	if err != nil {
		fatal(err)
	}
	spec, err := buildSpec(*pe, *glb, *dram)
	if err != nil {
		fatal(err)
	}

	s := core.New(spec, crypto)
	s.TopK = *topK
	s.Anneal.Iterations = *iters
	s.Anneal.Seed = *seed
	if *guided {
		s.Mapper = mapper.Options{Mode: mapper.Guided, Epsilon: *epsilon}
	}
	switch strings.ToLower(*objective) {
	case "latency":
		s.Objective = core.MinLatency
	case "edp":
		s.Objective = core.MinEDP
	default:
		fatal(fmt.Errorf("unknown objective %q", *objective))
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "secureloop: store close:", err)
			}
		}()
		s.Store = st
	}

	if *compare {
		runCompare(ctx, s, net)
		return
	}

	alg, err := parseAlg(*algName)
	if err != nil {
		fatal(err)
	}
	res, err := s.ScheduleNetworkCtx(ctx, net, alg)
	if err != nil {
		fatal(err)
	}
	report.Summary(os.Stdout, res, spec.ClockHz)
	if *layers {
		fmt.Println()
		report.Layers(os.Stdout, res)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		report.CSV(f, res)
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *csvPath)
	}
}

func runCompare(ctx context.Context, s *core.Scheduler, net *workload.Network) {
	base, err := s.ScheduleNetworkCtx(ctx, net, core.Unsecure)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-20s %14s %10s %12s %12s\n", "algorithm", "cycles", "norm", "auth_Mbit", "EDP")
	fmt.Printf("%-20s %14d %10.3f %12s %12.4g\n", "Unsecure", base.Total.Cycles, 1.0, "-", base.Total.EDP())
	for _, alg := range core.Algorithms() {
		res, err := s.ScheduleNetworkCtx(ctx, net, alg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-20s %14d %10.3f %12.4g %12.4g\n", alg.String(), res.Total.Cycles,
			float64(res.Total.Cycles)/float64(base.Total.Cycles),
			float64(res.Traffic.Total())/1e6, res.Total.EDP())
	}
}

// loadWorkload resolves a built-in network name or, when the argument ends
// in ".json", a custom network description (see workload.ParseJSON).
func loadWorkload(name string) (*workload.Network, error) {
	if strings.HasSuffix(name, ".json") {
		return workload.LoadJSON(name)
	}
	return workload.ByName(name)
}

func buildSpec(pe string, glb int, dram string) (arch.Spec, error) {
	spec := arch.Base()
	var x, y int
	if _, err := fmt.Sscanf(pe, "%dx%d", &x, &y); err != nil {
		return spec, fmt.Errorf("bad -pe %q (want e.g. 14x12)", pe)
	}
	spec = spec.WithPEs(x, y).WithGlobalBuffer(glb)
	switch strings.ToLower(dram) {
	case "lpddr4-64":
		spec = spec.WithDRAM(arch.LPDDR4x64)
	case "lpddr4-128":
		spec = spec.WithDRAM(arch.LPDDR4x128)
	case "hbm2":
		spec = spec.WithDRAM(arch.HBM2x64)
	default:
		return spec, fmt.Errorf("bad -dram %q", dram)
	}
	return spec, nil
}

func parseAlg(name string) (core.Algorithm, error) {
	switch strings.ToLower(name) {
	case "unsecure":
		return core.Unsecure, nil
	case "crypt-tile-single":
		return core.CryptTileSingle, nil
	case "crypt-opt-single":
		return core.CryptOptSingle, nil
	case "crypt-opt-cross":
		return core.CryptOptCross, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "secureloop: interrupted:", err)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "secureloop:", err)
	os.Exit(1)
}
