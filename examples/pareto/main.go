// Pareto study: the Figure 16 workflow. Sweep the secure-accelerator
// design space (PE array x buffer size x crypto engine) on AlexNet, mark
// the area/latency Pareto front, and print the paper's two design insights:
// small buffers pair well with fast crypto engines, and big PE arrays are
// wasted on slow ones (Section 5.3).
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"secureloop"
)

func main() {
	specs, cryptos := secureloop.Figure16Space(secureloop.BaseArch())
	res, err := secureloop.Sweep(context.Background(), secureloop.AlexNet(), specs, cryptos,
		secureloop.CryptOptCross, secureloop.SweepOptions{AnnealIterations: 100})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	points := res.Points
	sort.Slice(points, func(i, j int) bool { return points[i].AreaMM2 < points[j].AreaMM2 })

	fmt.Printf("%-40s %9s %12s %9s %7s\n", "design", "area_mm2", "cycles", "slowdown", "pareto")
	for _, p := range points {
		mark := ""
		if p.Pareto {
			mark = "  *"
		}
		fmt.Printf("%-40s %9.3f %12d %9.2f %7s\n", p.Label(), p.AreaMM2, p.Cycles, p.Slowdown(), mark)
	}

	fmt.Printf("\nPareto front (%d of %d designs):\n", len(res.Front), len(points))
	pipelinedSmallBuffer := 0
	for _, p := range res.Front {
		fmt.Printf("  %s\n", p.Label())
		if p.Crypto.Engine.Name == "pipelined" && p.Spec.GlobalBufferBytes < 131*1024 {
			pipelinedSmallBuffer++
		}
	}
	if pipelinedSmallBuffer > 0 {
		fmt.Println("\ninsight (Section 5.3): designs that trade buffer capacity for a")
		fmt.Println("high-throughput crypto engine appear on the Pareto front — spending")
		fmt.Println("area on the engine instead of SRAM is a good deal for secure designs.")
	}
}
