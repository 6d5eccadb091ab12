package mapper

import (
	"context"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/workload"
)

// benchLayer is an AlexNet-conv2-shaped layer, a representative mid-size
// convolution for the step-1 search.
func benchLayer() workload.Layer {
	return workload.Layer{
		Name: "conv2", C: 64, M: 192, R: 5, S: 5, P: 27, Q: 27,
		StrideH: 1, StrideW: 1, PadH: 2, PadW: 2,
		N: 1, WordBits: 16,
	}
}

// BenchmarkMapperSearch measures one uncached top-k loopnest search on the
// base architecture (the step-1 hot path of every design-point evaluation).
func BenchmarkMapperSearch(b *testing.B) {
	l := benchLayer()
	spec := arch.Base()
	req := Request{
		Layer: &l,
		PEsX:  spec.PEsX, PEsY: spec.PEsY,
		GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
		EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
		TopK:                   6,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := searchUncached(b, req); len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// benchRequest is the shared request of the mapper benchmarks.
func benchRequest(l *workload.Layer) Request {
	spec := arch.Base()
	return Request{
		Layer: l,
		PEsX:  spec.PEsX, PEsY: spec.PEsY,
		GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
		EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
		TopK:                   6,
	}
}

// BenchmarkMapperGuided measures the guided search, cold (warm-start store
// disabled), on the exact request BenchmarkMapperSearch runs — the ns/op
// ratio between the two is the guided-search speedup. The cost-ratio metric
// is best-candidate scheduling cycles, guided over exhaustive, summed over
// all AlexNet layers: 1.000 means zero cost regression (at the default
// Epsilon = 0 it is exact by construction, and asserted by the equivalence
// tests; the metric keeps BENCH_PR6.json honest about it).
func BenchmarkMapperGuided(b *testing.B) {
	l := benchLayer()
	req := guidedRequest(benchRequest(&l), 0, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := SearchCtx(context.Background(), req)
		if err != nil || len(got) == 0 {
			b.Fatalf("guided search: %d candidates, err %v", len(got), err)
		}
	}
	b.StopTimer()
	var guidedCycles, exhaustiveCycles int64
	an := workload.AlexNet()
	for i := 0; i < an.NumLayers(); i++ {
		lr := an.Layer(i)
		g, err := SearchCtx(context.Background(), guidedRequest(benchRequest(lr), 0, false))
		if err != nil || len(g) == 0 {
			b.Fatalf("guided search %s: %v", lr.Name, err)
		}
		e := searchUncached(b, benchRequest(lr))
		guidedCycles += g[0].Cycles
		exhaustiveCycles += e[0].Cycles
	}
	b.ReportMetric(float64(guidedCycles)/float64(exhaustiveCycles), "cost-ratio")
}

// BenchmarkMapperWarmStart measures the guided search seeded from the
// warm-start store: the store is pre-populated by a search at a
// neighbouring design point (double the GLB — a different exact-cache key,
// the same canonical warm key), the way a DSE sweep hands one spec's
// winners to the next.
func BenchmarkMapperWarmStart(b *testing.B) {
	l := benchLayer()
	req := guidedRequest(benchRequest(&l), 0, true)
	ResetCaches()
	neighbour := req
	neighbour.GLBBits *= 2
	if _, err := SearchCtx(context.Background(), neighbour); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := SearchCtx(context.Background(), req)
		if err != nil || len(got) == 0 {
			b.Fatalf("warm search: %d candidates, err %v", len(got), err)
		}
	}
}

// BenchmarkMapperSearchReference measures the retained pre-optimisation
// inner loop (the oracle of TestSearchEquivalence) on the same request, so
// scripts/bench.sh can record a live before/after pair — time and
// allocations — on the machine running the script.
func BenchmarkMapperSearchReference(b *testing.B) {
	l := benchLayer()
	spec := arch.Base()
	req := Request{
		Layer: &l,
		PEsX:  spec.PEsX, PEsY: spec.PEsY,
		GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
		EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
		TopK:                   6,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := searchReference(req); len(got) == 0 {
			b.Fatal("no candidates")
		}
	}
}
