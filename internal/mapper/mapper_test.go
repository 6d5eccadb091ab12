package mapper

import (
	"context"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/model"
	"secureloop/internal/workload"
)

// searchUncached is SearchCtx with a background context, failing the test
// on error.
func searchUncached(t testing.TB, req Request) []Candidate {
	t.Helper()
	out, err := SearchCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// searchCached is SearchCachedCtx with a background context, failing the
// test on error.
func searchCached(t testing.TB, req Request) []Candidate {
	t.Helper()
	out, err := SearchCachedCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func baseRequest(l *workload.Layer) Request {
	spec := arch.Base()
	return Request{
		Layer: l,
		PEsX:  spec.PEsX, PEsY: spec.PEsY,
		GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
		EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
		TopK:                   6,
	}
}

func TestSearchReturnsValidMappings(t *testing.T) {
	for _, net := range workload.Networks() {
		for i := range net.Layers {
			l := &net.Layers[i]
			req := baseRequest(l)
			cands := searchCached(t, req)
			if len(cands) == 0 {
				t.Fatalf("%s/%s: no candidates", net.Name, l.Name)
			}
			for _, c := range cands {
				if err := c.Mapping.Validate(l, req.PEsX, req.PEsY); err != nil {
					t.Fatalf("%s/%s: invalid mapping: %v", net.Name, l.Name, err)
				}
				if c.Mapping.GLBBitsUsed(l) > req.GLBBits {
					t.Fatalf("%s/%s: GLB overflow", net.Name, l.Name)
				}
				if c.Mapping.RFBitsUsed(l) > req.RFBits {
					t.Fatalf("%s/%s: RF overflow", net.Name, l.Name)
				}
			}
		}
	}
}

func TestSearchSortedAndDiverse(t *testing.T) {
	l := workload.AlexNet().Layer(2)
	cands := searchUncached(t, baseRequest(l))
	if len(cands) < 2 {
		t.Fatalf("only %d candidates", len(cands))
	}
	seen := map[sigKey]bool{}
	for i, c := range cands {
		if i > 0 && cands[i-1].Cycles > c.Cycles {
			t.Error("candidates not sorted by cycles")
		}
		sig := signature(c.Mapping)
		if seen[sig] {
			t.Error("duplicate tiling signature in top-k")
		}
		seen[sig] = true
	}
}

func TestSearchCostMatchesModel(t *testing.T) {
	l := workload.AlexNet().Layer(1)
	req := baseRequest(l)
	for _, c := range searchUncached(t, req) {
		want := model.SchedulingCycles(l, c.Mapping, req.EffectiveBytesPerCycle)
		if c.Cycles != want {
			t.Fatalf("reported %d, model says %d", c.Cycles, want)
		}
	}
}

func TestLowerBandwidthNeverImprovesBest(t *testing.T) {
	l := workload.ResNet18().Layer(5)
	fast := baseRequest(l)
	slow := fast
	slow.EffectiveBytesPerCycle = 1.5
	bFast := searchUncached(t, fast)[0].Cycles
	bSlow := searchUncached(t, slow)[0].Cycles
	if bSlow < bFast {
		t.Errorf("slower bandwidth found faster schedule: %d < %d", bSlow, bFast)
	}
}

func TestCryptoAwareSchedulingHelps(t *testing.T) {
	// The Section 5.1 point: supplying the effective bandwidth to the
	// mapper matters. A schedule picked for full bandwidth, re-evaluated
	// under the crypto-limited bandwidth, must not beat the schedule picked
	// *for* that bandwidth.
	l := workload.MobileNetV2().Layer(10)
	eff := 3 * 16.0 / 11 // parallel engine per datatype
	aware := searchUncached(t, func() Request { r := baseRequest(l); r.EffectiveBytesPerCycle = eff; return r }())
	naive := searchUncached(t, baseRequest(l))
	naiveUnderCrypto := model.SchedulingCycles(l, naive[0].Mapping, eff)
	if aware[0].Cycles > naiveUnderCrypto {
		t.Errorf("crypto-aware schedule (%d) worse than naive schedule under crypto (%d)",
			aware[0].Cycles, naiveUnderCrypto)
	}
}

func TestTinyLayerFallback(t *testing.T) {
	// A 1x1x1 layer exercises the degenerate paths.
	l := &workload.Layer{Name: "fc", C: 512, M: 1000, R: 1, S: 1, P: 1, Q: 1,
		StrideH: 1, StrideW: 1, N: 1, WordBits: 16}
	cands := searchUncached(t, baseRequest(l))
	if len(cands) == 0 {
		t.Fatal("no candidates for FC layer")
	}
	if err := cands[0].Mapping.Validate(l, 14, 12); err != nil {
		t.Fatal(err)
	}
}

func TestSearchCachedIdempotent(t *testing.T) {
	l := workload.AlexNet().Layer(0)
	req := baseRequest(l)
	a := searchCached(t, req)
	b := searchCached(t, req)
	if len(a) != len(b) {
		t.Fatal("cache changed result length")
	}
	for i := range a {
		if a[i].Cycles != b[i].Cycles || signature(a[i].Mapping) != signature(b[i].Mapping) {
			t.Fatal("cache changed results")
		}
	}
}

func TestTileCandidates(t *testing.T) {
	for _, n := range []int{1, 2, 13, 27, 55, 112, 1280} {
		cands := tileCandidates(n)
		if cands[0] != 1 || cands[len(cands)-1] != n {
			t.Errorf("tileCandidates(%d) = %v: must span [1, n]", n, cands)
		}
		if len(cands) > 13 {
			t.Errorf("tileCandidates(%d) too large: %d", n, len(cands))
		}
		for i := 1; i < len(cands); i++ {
			if cands[i] <= cands[i-1] {
				t.Errorf("tileCandidates(%d) not strictly increasing: %v", n, cands)
			}
		}
	}
}

func TestSpatialFactors(t *testing.T) {
	fs := spatialFactors(55, 14)
	// Largest usable (14) plus best divisor (11).
	if len(fs) != 2 || fs[0] != 14 || fs[1] != 11 {
		t.Errorf("spatialFactors(55,14) = %v", fs)
	}
	if fs := spatialFactors(12, 14); len(fs) != 1 || fs[0] != 12 {
		t.Errorf("spatialFactors(12,14) = %v", fs)
	}
	if fs := spatialFactors(1, 14); fs[0] != 1 {
		t.Errorf("spatialFactors(1,14) = %v", fs)
	}
}

func BenchmarkSearchConvLayer(b *testing.B) {
	l := workload.AlexNet().Layer(2)
	req := baseRequest(l)
	for i := 0; i < b.N; i++ {
		searchUncached(b, req)
	}
}
