package mapper

import (
	"sync"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/workload"
)

// TestSearchLowerBoundSound pins the floor's contract: on every AlexNet
// layer and ResNet-18's layer2.0.downsample, whose stride exceeds its
// filter extent, across PE-array shapes, buffer sizes and effective
// bandwidths, SearchLowerBound never exceeds the cost of the best candidate
// either search mode returns — the property the DSE coordinator's dominance
// pruning is sound against. Each memoised bound equals a fresh
// computation. After ResetCaches, a second pass over the cases from several
// goroutines at once (the bound memo is shared by concurrent sweeps)
// returns the same bounds, computing each distinct key once and serving
// every other lookup from the memo.
func TestSearchLowerBoundSound(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	base := arch.Base()
	specs := []arch.Spec{
		base,
		base.WithGlobalBuffer(16 * 1024),
		base.WithPEs(28, 24).WithGlobalBuffer(32 * 1024),
	}
	bws := []float64{0.5, 4, float64(base.DRAM.BytesPerCycle)}
	layers := []*workload.Layer{downsampleLayer()}
	net := workload.AlexNet()
	for i := range net.Layers {
		layers = append(layers, &net.Layers[i])
	}
	var reqs []Request
	var lbs []int64
	for _, spec := range specs {
		for _, bw := range bws {
			for _, l := range layers {
				req := Request{
					Layer: l,
					PEsX:  spec.PEsX, PEsY: spec.PEsY,
					GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
					EffectiveBytesPerCycle: bw,
					TopK:                   1,
				}
				lb := SearchLowerBound(req)
				if lb < 0 {
					t.Fatalf("%s pe%dx%d bw=%g: negative bound %d", l.Name, spec.PEsX, spec.PEsY, bw, lb)
				}
				if fresh := searchLowerBound(req); lb != fresh {
					t.Errorf("%s pe%dx%d glb%dB bw=%g: memoised bound %d != fresh %d",
						l.Name, spec.PEsX, spec.PEsY, spec.GlobalBufferBytes, bw, lb, fresh)
				}
				reqs, lbs = append(reqs, req), append(lbs, lb)
				for _, mode := range []Mode{Exhaustive, Guided} {
					r := req
					r.Opt = Options{Mode: mode}
					best := searchUncached(t, r)[0].Cycles
					if lb > best {
						t.Errorf("%s pe%dx%d glb%dB bw=%g mode=%v: bound %d exceeds best candidate %d",
							l.Name, spec.PEsX, spec.PEsY, spec.GlobalBufferBytes, bw, mode, lb, best)
					}
				}
			}
		}
	}
	ResetCaches()
	keys := map[cacheKey]bool{}
	for _, req := range reqs {
		keys[boundKey(req)] = true
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				if got := SearchLowerBound(req); got != lbs[i] {
					t.Errorf("%s bw=%g: second pass bound %d != %d", req.Layer.Name, req.EffectiveBytesPerCycle, got, lbs[i])
				}
			}
		}()
	}
	wg.Wait()
	_, _, _, st := CacheStats()
	if st.Misses != int64(len(keys)) || st.Hits+st.Shared+st.Misses != int64(workers*len(reqs)) {
		t.Errorf("second pass: memo %+v over %d lookups of %d distinct keys", st, workers*len(reqs), len(keys))
	}
}

// TestSearchLowerBoundModeIndependent pins that the bound never reads the
// fields its memo key leaves out (boundKey): the layer name, the search
// options, TopK and the buffer capacity. One memo entry serves exhaustive
// and guided sweeps at every buffer size, so the test compares fresh
// computations, never memo hits; a bound that starts reading one of these
// fields fails here before the memo can serve it a stale value.
func TestSearchLowerBoundModeIndependent(t *testing.T) {
	l := workload.AlexNet().Layer(2)
	spec := arch.Base()
	req := Request{
		Layer: l,
		PEsX:  spec.PEsX, PEsY: spec.PEsY,
		GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
		EffectiveBytesPerCycle: 4,
		TopK:                   1,
	}
	want := searchLowerBound(req)
	renamed := *l
	renamed.Name = "renamed"
	for _, opt := range []Options{
		{Mode: Guided},
		{Mode: Guided, Epsilon: 0.5},
		{Mode: Exhaustive},
	} {
		for _, glb := range []int64{req.GLBBits, 16 * 1024 * 8, 1024 * 8} { // base, 16 kB, 1 kB
			r := req
			r.Layer = &renamed
			r.Opt = opt
			r.TopK = 6
			r.GLBBits = glb
			if got := searchLowerBound(r); got != want {
				t.Errorf("opt %+v glb %d bits: bound %d != %d", opt, glb, got, want)
			}
		}
	}
}
