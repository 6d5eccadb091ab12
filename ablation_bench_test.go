// Ablation benchmarks for the design choices DESIGN.md calls out, beyond
// the paper's own figures: the tree-less-vs-Merkle metadata gap, TEE
// entry/exit amortisation, annealing temperature sensitivity, and the
// analytic-vs-brute AuthBlock counting speedup that makes the Section 4.2
// search tractable.
package secureloop_test

import (
	"context"
	"testing"

	"secureloop/internal/anneal"
	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/experiments"
	"secureloop/internal/merkle"
	"secureloop/internal/tee"
	"secureloop/internal/workload"
)

// BenchmarkAblationMerkleVsTreeless quantifies the metadata-traffic gap
// between a general-purpose Bonsai-Merkle TEE and the tree-less AuthBlock
// scheme, for each workload's off-chip footprint (Section 6 argument).
func BenchmarkAblationMerkleVsTreeless(b *testing.B) {
	tree := merkle.DefaultTree()
	for i := 0; i < b.N; i++ {
		for _, net := range workload.Networks() {
			var access, footprint int64
			for j := range net.Layers {
				l := &net.Layers[j]
				access += l.TotalVolume() * int64(l.WordBits) / 8
				footprint += l.VolumeBits(workload.Weight) / 8
			}
			treeBits := tree.ExtraTrafficBits(access, footprint)
			flatBits := merkle.TreelessTrafficBits(access, 1024, 64)
			b.ReportMetric(float64(treeBits)/float64(flatBits), net.Name+"_tree_over_flat")
		}
	}
}

// BenchmarkAblationTEEAmortization reports the end-to-end entry/exit
// overhead for 1 vs 1000 served inferences (Section 5.2's entry/exit
// discussion).
func BenchmarkAblationTEEAmortization(b *testing.B) {
	cfg := tee.Default()
	net := workload.ResNet18()
	spec := arch.Base()
	for i := 0; i < b.N; i++ {
		s := core.New(spec, cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1})
		s.Anneal.Iterations = 100
		res, err := s.ScheduleNetwork(net, core.CryptOptSingle)
		if err != nil {
			b.Fatal(err)
		}
		inferSec := float64(res.Total.Cycles) / spec.ClockHz
		b.ReportMetric(cfg.AmortizedOverheadPct(net, inferSec, 1), "overhead_pct_1req")
		b.ReportMetric(cfg.AmortizedOverheadPct(net, inferSec, 1000), "overhead_pct_1000req")
	}
}

// BenchmarkAblationAnnealTemperature compares the paper's linear schedule
// at three initial temperatures on AlexNet's conv3-5 segment, reporting the
// relative cycles found (lower is better).
func BenchmarkAblationAnnealTemperature(b *testing.B) {
	net := workload.AlexNet()
	spec := arch.Base()
	for i := 0; i < b.N; i++ {
		for _, tInit := range []float64{0.005, 0.05, 0.5} {
			s := core.New(spec, cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1})
			s.Anneal = anneal.Options{Iterations: 400, TInit: tInit, TFinal: 1e-4, Seed: 1}
			res, err := s.ScheduleNetwork(net, core.CryptOptCross)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Total.Cycles)/1e6, "Mcycles_T"+fmtT(tInit))
		}
	}
}

func fmtT(t float64) string {
	switch {
	case t < 0.01:
		return "low"
	case t < 0.1:
		return "mid"
	default:
		return "high"
	}
}

// BenchmarkAuthBlockCountingAnalytic measures the Section 4.2 congruence
// counting on a production-sized tile, and ...Brute its enumeration
// equivalent — the speedup is what makes the exhaustive AuthBlock search
// feasible.
func BenchmarkAuthBlockCountingAnalytic(b *testing.B) {
	box := authblock.Box{C0: 0, C1: 32, P0: 3, P1: 27, Q0: 5, Q1: 55}
	for i := 0; i < b.N; i++ {
		authblock.CountBoxBlocks(32, 28, 56, box, authblock.AlongQ, 37)
	}
}

// BenchmarkAuthBlockOptimalSearch measures one full optimal-assignment
// search for a realistic cross-layer pair geometry.
func BenchmarkAuthBlockOptimalSearch(b *testing.B) {
	p := authblock.ProducerGrid{C: 64, H: 56, W: 56, TileC: 16, TileH: 14, TileW: 56, WritesPerTile: 1}
	c := authblock.ConsumerGrid{
		TileC: 16, WinH: 16, WinW: 58, StepH: 14, StepW: 56,
		OffH: -1, OffW: -1, CountC: 4, CountH: 4, CountW: 1,
		FetchesPerTile: 1,
	}
	par := authblock.DefaultParams()
	for i := 0; i < b.N; i++ {
		if _, err := authblock.OptimalCtx(context.Background(), p, c, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationObjective compares the latency and EDP fine-tuning
// objectives on ResNet18, reporting both metrics under each.
func BenchmarkAblationObjective(b *testing.B) {
	net := workload.ResNet18()
	spec := arch.Base()
	for i := 0; i < b.N; i++ {
		for _, obj := range []core.Objective{core.MinLatency, core.MinEDP} {
			s := core.New(spec, cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1})
			s.Anneal.Iterations = 400
			s.Objective = obj
			res, err := s.ScheduleNetwork(net, core.CryptOptCross)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Total.Cycles)/1e6, "Mcycles_"+obj.String())
			b.ReportMetric(res.Total.EDP()/1e15, "EDPe15_"+obj.String())
		}
	}
}

// BenchmarkAblationHashSize runs the tag-width sensitivity study
// (security/traffic trade-off beyond the paper's fixed hash size).
func BenchmarkAblationHashSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.HashSizeStudy(context.Background(), experiments.Options{Quick: testing.Short()})
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 3 {
			b.Fatalf("%d rows", len(t.Rows))
		}
	}
}
