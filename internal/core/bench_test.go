package core

import (
	"context"
	"math/rand"
	"testing"

	"secureloop/internal/anneal"
	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

// benchSegmentNetwork is a five-layer single-segment chain (deeper than any
// paper segment) stressing the cross-layer annealing step.
func benchSegmentNetwork() *workload.Network {
	mk := func(name string, c, m int) workload.Layer {
		return workload.Layer{
			Name: name, C: c, M: m, R: 3, S: 3, P: 14, Q: 14,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			N: 1, WordBits: 16,
		}
	}
	return &workload.Network{
		Name: "bench-chain5",
		Layers: []workload.Layer{
			mk("l0", 64, 96),
			mk("l1", 96, 96),
			mk("l2", 96, 96),
			mk("l3", 96, 96),
			mk("l4", 96, 64),
		},
		Segments: [][]int{{0, 1, 2, 3, 4}},
	}
}

// benchRun assembles the step-1 candidates for the bench network so the
// benchmarks isolate the step-2/3 AuthBlock and annealing pipeline.
func benchRun(b *testing.B, net *workload.Network) *run {
	b.Helper()
	s := New(arch.Base(), cryptoengine.Config{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1})
	r := newRun(s, net, CryptOptCross)
	effBW := s.Crypto.EffectiveBytesPerCycle(s.Spec.DRAM.BytesPerCycle)
	for i := range net.Layers {
		var err error
		r.candidates[i], err = mapper.SearchCachedCtx(context.Background(), mapper.Request{
			Layer: &net.Layers[i],
			PEsX:  s.Spec.PEsX, PEsY: s.Spec.PEsY,
			GLBBits: s.Spec.GlobalBufferBits(), RFBits: s.Spec.RegFileBits(),
			EffectiveBytesPerCycle: effBW,
			TopK:                   s.TopK,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.candidates[i]) == 0 {
			b.Fatalf("no candidates for layer %d", i)
		}
	}
	return r
}

// BenchmarkAnnealSegment measures the step-2/3 pipeline on a 5-layer
// segment with a cold AuthBlock cache: 500 annealing iterations over the
// per-layer top-k candidate sets, with every memo (global authblock caches,
// pair matrices, layer memos) dropped each iteration. The dense pair-cost
// matrices are precomputed up front on the shared decomposition, so the
// anneal runs over pure array lookups. The committed BENCH_*.json history
// records the pre-batching "reference" variant this replaced.
func BenchmarkAnnealSegment(b *testing.B) {
	net := benchSegmentNetwork()
	opts := anneal.Options{Iterations: 500, TInit: 0.05, TFinal: 1e-4, Seed: 1}
	segs := net.Segments
	b.Run("batched", func(b *testing.B) {
		r := benchRun(b, net)
		var evals int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			authblock.ResetCaches()
			r.pairMats = make([]*pairMatrix, net.NumLayers())
			r.layerMemos = make([]layerMemo, net.NumLayers())
			r.layerEvals.Store(0)
			b.StartTimer()
			r.precomputePairMatrices(segs, 1)
			r.prepareLayerMemos(segs)
			res, err := anneal.MinimizeCtx(context.Background(), &segmentProblem{run: r, segment: segs[0]}, opts, nil, 0)
			if err != nil || res.Cost <= 0 {
				b.Fatalf("segment cost %v, err %v", res.Cost, err)
			}
			evals += r.layerEvals.Load()
		}
		b.ReportMetric(float64(evals)/float64(int64(b.N)*int64(opts.Iterations)), "layer-evals/move")
	})
}

// BenchmarkAnnealMove measures the steady-state annealing move: every pair
// matrix and layer-memo slot is warm, so DeltaCost must be pure array
// arithmetic — 0 allocs/op.
func BenchmarkAnnealMove(b *testing.B) {
	net := benchSegmentNetwork()
	r := benchRun(b, net)
	segs := net.Segments
	r.precomputePairMatrices(segs, 1)
	r.prepareLayerMemos(segs)
	prob := &segmentProblem{run: r, segment: segs[0]}
	// Warm every memo slot the move loop can touch.
	res, err := anneal.MinimizeCtx(context.Background(), prob, anneal.Options{Iterations: 2000, TInit: 0.05, TFinal: 1e-4, Seed: 1}, nil, 0)
	if err != nil || res.Cost <= 0 {
		b.Fatalf("segment cost %v, err %v", res.Cost, err)
	}
	rng := rand.New(rand.NewSource(2))
	choices := make([]int, len(segs[0]))
	moves := make([][2]int, 1024)
	for i := range moves {
		li := rng.Intn(len(segs[0]))
		moves[i] = [2]int{li, rng.Intn(len(r.candidates[segs[0][li]]))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		m := moves[i%len(moves)]
		sink += prob.DeltaCost(choices, m[0], m[1])
	}
	if sink <= 0 {
		b.Fatal("non-positive accumulated cost")
	}
}

// BenchmarkPairMatrix measures the batched step-2 precomputation alone: the
// k x k AuthBlock pair-cost matrices of all adjacent layer pairs in the
// segment, from a cold cache.
func BenchmarkPairMatrix(b *testing.B) {
	net := benchSegmentNetwork()
	r := benchRun(b, net)
	segs := net.Segments
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		authblock.ResetCaches()
		r.pairMats = make([]*pairMatrix, net.NumLayers())
		b.StartTimer()
		r.precomputePairMatrices(segs, 1)
	}
}

// BenchmarkScheduleNetworkCross is the end-to-end Crypt-Opt-Cross schedule
// of AlexNet from a cold AuthBlock cache (the mapper cache stays warm, so
// the number isolates steps 2-3 plus assembly).
func BenchmarkScheduleNetworkCross(b *testing.B) {
	net := workload.AlexNet()
	s := New(arch.Base(), cryptoengine.Config{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1})
	s.Anneal.Iterations = 500
	if _, err := s.ScheduleNetwork(net, CryptOptCross); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		authblock.ResetCaches()
		b.StartTimer()
		if _, err := s.ScheduleNetwork(net, CryptOptCross); err != nil {
			b.Fatal(err)
		}
	}
}
