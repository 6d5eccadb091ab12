// Edge accelerator study: the paper's Section 3.1 motivation made concrete.
// A low-power edge device (Eyeriss-class) cannot afford the 416.7 kGates of
// fully-pipelined AES-GCM engines that prior work assumed for TPU-scale
// accelerators — that is ~35% of its logic area. This example uses
// SecureLoop to pick a cryptographic engine for an edge design running
// MobileNetV2: it sweeps every Table 2 engine at several counts and prints
// the latency/area frontier, showing that a moderate number of
// higher-throughput engines beats many small serial ones (Section 5.2).
package main

import (
	"context"
	"fmt"
	"os"

	"secureloop"
)

func main() {
	net := secureloop.MobileNetV2()
	spec := secureloop.BaseArch()

	var cryptos []secureloop.CryptoConfig
	for _, cand := range []struct {
		engine secureloop.CryptoEngine
		counts []int
	}{
		{secureloop.SerialEngine(), []int{1, 10, 30}},
		{secureloop.ParallelEngine(), []int{1, 2, 5}},
		{secureloop.PipelinedEngine(), []int{1}},
	} {
		for _, n := range cand.counts {
			cryptos = append(cryptos, secureloop.CryptoConfig{Engine: cand.engine, CountPerDatatype: n})
		}
	}
	res, err := secureloop.Sweep(context.Background(), net, []secureloop.ArchSpec{spec}, cryptos,
		secureloop.CryptOptCross, secureloop.SweepOptions{AnnealIterations: 200})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("edge design: %dx%d PEs, %d kB buffer, workload %s\n",
		spec.PEsX, spec.PEsY, spec.GlobalBufferBytes/1024, net.Name)
	fmt.Printf("unsecure latency: %d cycles\n\n", res.Points[0].UnsecureCycles)

	fmt.Printf("%-16s %10s %12s %10s %14s %12s\n",
		"engine", "slowdown", "cycles", "kGates", "area_overhead", "engine_bw")
	for _, p := range res.Points {
		fmt.Printf("%-16s %10.2f %12d %10.1f %13.1f%% %9.2f B/c\n",
			p.Crypto, p.Slowdown(), p.Cycles, p.Crypto.TotalAreaKGates(),
			p.CryptoAreaOverheadPct, p.Crypto.DatatypeBytesPerCycle())
	}

	fmt.Println("\nreading the table: low-throughput serial engines bottleneck the")
	fmt.Println("accelerator even in bulk, while one parallel engine per datatype")
	fmt.Println("reaches similar latency at a tenth of the area (Section 5.2).")
}
