// Command secureloop schedules a DNN workload on a secure accelerator
// design and reports latency, energy and authentication-traffic statistics.
// The flags fill a service.ScheduleWire, the body of the daemon's
// /v1/schedule, which is resolved, validated and scheduled in process
// exactly as cmd/secured serves it; the tables render the full result,
// per-layer loopnests included.
//
// Usage:
//
//	secureloop -workload mobilenetv2 -engine parallel -count 1 \
//	           -alg crypt-opt-cross [-pe 14x12] [-glb 131072] \
//	           [-dram LPDDR4-64B] [-topk 6] [-iters 1000] \
//	           [-guided] [-epsilon 0] [-layers] [-csv out.csv] [-compare]
//
// -compare runs all of Table 1's algorithms plus the unsecure baseline and
// prints the normalized-latency comparison of Figure 11a for the chosen
// design.
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

	"secureloop/internal/core"
	"secureloop/internal/report"
	"secureloop/internal/service"
	"secureloop/internal/store"
)

func main() {
	// Ctrl-C cancels the schedule at its next stage boundary; the error
	// printed on exit names the stage that was interrupted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "secureloop: interrupted:", err)
		os.Exit(130)
	default:
		fmt.Fprintln(os.Stderr, "secureloop:", err)
		os.Exit(1)
	}
}

// run is the command body, factored out of main so tests can drive it with
// their own context, flags and stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("secureloop", flag.ContinueOnError)
	workloadName := fs.String("workload", "alexnet", "workload: alexnet, resnet18, mobilenetv2, vgg16, or a .json file")
	engineName := fs.String("engine", "parallel", "AES-GCM engine: pipelined, parallel, serial")
	count := fs.Int("count", 1, "engines per datatype")
	algName := fs.String("alg", "crypt-opt-cross", "algorithm: unsecure, crypt-tile-single, crypt-opt-single, crypt-opt-cross")
	pe := fs.String("pe", "14x12", "PE array, e.g. 14x12")
	glb := fs.Int("glb", 131*1024, "global buffer bytes")
	dram := fs.String("dram", "LPDDR4-64B", "DRAM: LPDDR4-64B, LPDDR4-128B, HBM2-64B")
	topK := fs.Int("topk", 6, "top-k schedules per layer for annealing")
	iters := fs.Int("iters", 1000, "annealing iterations")
	guided := fs.Bool("guided", false, "use the guided loopnest search (at epsilon 0 byte-identical to exhaustive except on layers whose stride exceeds the filter extent)")
	epsilon := fs.Float64("epsilon", 0, "guided-search relaxation: allowed per-rank cycle regression (e.g. 0.01)")
	layers := fs.Bool("layers", false, "print per-layer table")
	csvPath := fs.String("csv", "", "write per-layer CSV to this path")
	compare := fs.Bool("compare", false, "compare all scheduling algorithms")
	objective := fs.String("objective", "latency", "fine-tuning objective: latency or edp")
	storeDir := fs.String("store", "", "persistent result-store directory: identical runs replay byte-identical schedules from disk")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w := service.ScheduleWire{
		Arch:             &service.ArchWire{GlobalBufferBytes: *glb, DRAM: *dram},
		Crypto:           &service.CryptoWire{Engine: *engineName, Count: *count},
		Algorithm:        *algName,
		Objective:        *objective,
		TopK:             *topK,
		AnnealIterations: *iters,
	}
	if _, err := fmt.Sscanf(*pe, "%dx%d", &w.Arch.PEsX, &w.Arch.PEsY); err != nil {
		return fmt.Errorf("bad -pe %q (want e.g. 14x12)", *pe)
	}
	if *guided {
		w.Mapper = &service.MapperWire{Mode: "guided", Epsilon: *epsilon}
	}
	// A workload is a built-in network's name or a network JSON file, the
	// two forms the wire's network field takes.
	var err error
	if strings.HasSuffix(*workloadName, ".json") {
		w.Network, err = os.ReadFile(*workloadName)
	} else {
		w.Network, err = json.Marshal(*workloadName)
	}
	if err != nil {
		return err
	}
	req, err := w.Resolve()
	if err != nil {
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
				fmt.Fprintln(os.Stderr, "secureloop: store close:", err)
			}
		}()
		cfg.Store = st
	}
	svc := service.New(cfg)
	schedule := func(alg core.Algorithm) (*core.NetworkResult, error) {
		r := *req
		r.Algorithm = alg
		if err := r.Validate(); err != nil {
			return nil, err
		}
		res, _, err := svc.ScheduleResult(ctx, &r, nil)
		return res, err
	}

	if *compare {
		base, err := schedule(core.Unsecure)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-20s %14s %10s %12s %12s\n", "algorithm", "cycles", "norm", "auth_Mbit", "EDP")
		fmt.Fprintf(stdout, "%-20s %14d %10.3f %12s %12.4g\n", "Unsecure", base.Total.Cycles, 1.0, "-", base.Total.EDP())
		for _, alg := range core.Algorithms() {
			res, err := schedule(alg)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-20s %14d %10.3f %12.4g %12.4g\n", alg.String(), res.Total.Cycles,
				float64(res.Total.Cycles)/float64(base.Total.Cycles),
				float64(res.Traffic.Total())/1e6, res.Total.EDP())
		}
		return nil
	}

	res, err := schedule(req.Algorithm)
	if err != nil {
		return err
	}
	report.Summary(stdout, res, req.Spec.ClockHz)
	if *layers {
		fmt.Fprintln(stdout)
		report.Layers(stdout, res)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		report.CSV(f, res)
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *csvPath)
	}
	return nil
}
