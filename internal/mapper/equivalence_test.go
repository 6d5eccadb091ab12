package mapper

import (
	"fmt"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/mapping"
	"secureloop/internal/workload"
)

// equivalenceSpecs and equivalenceLayers build the spec × layer matrix the
// search-equivalence tests (exhaustive-vs-reference here, guided-vs-oracle
// in guided_test.go) share.
func equivalenceSpecs() []*arch.Spec {
	base := arch.Base()
	small := base.WithPEs(8, 8).WithGlobalBuffer(16 * 1024)
	big := base.WithPEs(28, 24).WithGlobalBuffer(256 * 1024)
	return []*arch.Spec{&base, &small, &big}
}

func equivalenceLayers() []*workload.Layer {
	var layers []*workload.Layer
	an := workload.AlexNet()
	for i := 0; i < an.NumLayers(); i++ {
		layers = append(layers, an.Layer(i))
	}
	rn := workload.ResNet18()
	for _, i := range []int{0, 4, 9, rn.NumLayers() - 1} {
		layers = append(layers, rn.Layer(i))
	}
	mn := workload.MobileNetV2()
	for _, i := range []int{0, 1, 5, 10, 20} { // includes depthwise layers
		layers = append(layers, mn.Layer(i))
	}
	// Degenerate shapes: FC-style 1x1 spatial, single-channel, prime bounds.
	layers = append(layers,
		&workload.Layer{Name: "fc", C: 512, M: 1000, R: 1, S: 1, P: 1, Q: 1,
			StrideH: 1, StrideW: 1, N: 1, WordBits: 16},
		&workload.Layer{Name: "prime", C: 13, M: 17, R: 3, S: 3, P: 29, Q: 29,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16},
		&workload.Layer{Name: "tiny", C: 1, M: 1, R: 1, S: 1, P: 2, Q: 2,
			StrideH: 1, StrideW: 1, N: 1, WordBits: 8},
	)
	return layers
}

// downsampleLayer returns ResNet-18's layer2.0.downsample (1×1, stride 2),
// a layer whose stride exceeds its filter extent.
func downsampleLayer() *workload.Layer {
	rn := workload.ResNet18()
	for i := range rn.Layers {
		if rn.Layers[i].Name == "layer2.0.downsample" {
			return &rn.Layers[i]
		}
	}
	panic("ResNet-18 has no layer2.0.downsample")
}

// TestSearchEquivalence is the correctness guard of exhaustive mode: across
// a matrix of layer shapes, architecture variants, effective bandwidths and
// k values, SearchCtx must return a top-k byte-identical to searchReference
// (clone per tiling, full model evaluation per permutation, skip-only
// capacity checks): same length, and per rank the same tiling signature,
// cycles, off-chip bits and rendered loopnest. ResNet-18's
// layer2.0.downsample is added here, also at 30/7 B/cycle, to cover the
// exact traffic floor where it sits below guided mode's. The guided-mode
// tests leave it out: at Epsilon = 0 guided mode still prunes against its
// own floor, which overshoots there.
func TestSearchEquivalence(t *testing.T) {
	down := downsampleLayer()
	layers := append(equivalenceLayers(), down)
	for _, spec := range equivalenceSpecs() {
		for _, l := range layers {
			bws := []float64{float64(spec.DRAM.BytesPerCycle), 1.5}
			if l == down {
				bws = append(bws, 30.0/7)
			}
			for _, bw := range bws {
				for _, k := range []int{1, 4, 6} {
					req := Request{
						Layer: l,
						PEsX:  spec.PEsX, PEsY: spec.PEsY,
						GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
						EffectiveBytesPerCycle: bw,
						TopK:                   k,
					}
					name := fmt.Sprintf("%s/pe%dx%d/bw%.1f/k%d", l.Name, spec.PEsX, spec.PEsY, bw, k)
					got := searchUncached(t, req)
					want := searchReference(req)
					if len(got) != len(want) {
						t.Errorf("%s: %d candidates, reference has %d", name, len(got), len(want))
						continue
					}
					for i := range got {
						if got[i].Cycles != want[i].Cycles || got[i].OffchipBits != want[i].OffchipBits {
							t.Errorf("%s[%d]: (cycles, bits) = (%d, %d), reference (%d, %d)",
								name, i, got[i].Cycles, got[i].OffchipBits, want[i].Cycles, want[i].OffchipBits)
						}
						if signature(got[i].Mapping) != signature(want[i].Mapping) {
							t.Errorf("%s[%d]: signature mismatch:\n  got  %v\n  want %v",
								name, i, got[i].Mapping, want[i].Mapping)
						}
						if gs, ws := got[i].Mapping.String(), want[i].Mapping.String(); gs != ws {
							t.Errorf("%s[%d]: loopnest mismatch:\n  got  %s\n  want %s", name, i, gs, ws)
						}
					}
				}
			}
		}
	}
}

// TestAnalysisMatchesOffchip pins the tiling/permutation cost split at the
// mapping layer: for every candidate the search produces, the analysis path
// must reproduce Offchip().TotalElems() and TemporalIterations exactly under
// every permutation heuristic.
func TestAnalysisMatchesOffchip(t *testing.T) {
	spec := arch.Base()
	for _, l := range []*workload.Layer{
		workload.AlexNet().Layer(1),
		workload.MobileNetV2().Layer(1), // depthwise
	} {
		req := Request{
			Layer: l, PEsX: spec.PEsX, PEsY: spec.PEsY,
			GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
			EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
			TopK:                   4,
		}
		for _, c := range searchUncached(t, req) {
			an := c.Mapping.Analyze(l)
			if got, want := an.Compute, c.Mapping.TemporalIterations(l); got != want {
				t.Errorf("%s: analysis compute %d, mapping says %d", l.Name, got, want)
			}
			for _, perm := range permHeuristics {
				m := c.Mapping.Clone()
				m.PermDRAM = perm
				got := an.OffchipElems(perm)
				want := m.Offchip(l).TotalElems()
				if got != want {
					t.Errorf("%s perm %v: analysis %d elems, Offchip %d", l.Name, perm, got, want)
				}
				if got < an.MinOffchipElems {
					t.Errorf("%s perm %v: traffic %d below claimed lower bound %d",
						l.Name, perm, got, an.MinOffchipElems)
				}
			}
		}
	}
}

// TestSignatureDeterminesTiling guards the dedup assumption: equal
// signatures imply equal GLB tile extents and spatial factors.
func TestSignatureDeterminesTiling(t *testing.T) {
	l := workload.AlexNet().Layer(2)
	spec := arch.Base()
	req := Request{
		Layer: l, PEsX: spec.PEsX, PEsY: spec.PEsY,
		GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
		EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
		TopK:                   6,
	}
	for _, c := range searchUncached(t, req) {
		sig := signature(c.Mapping)
		for i, d := range mapping.Dims {
			tile := int(sig[4*i]) | int(sig[4*i+1])<<8
			if got := c.Mapping.TileDim(mapping.GLB, d); got&0xffff != tile {
				t.Errorf("signature tile for %v = %d, mapping has %d", d, tile, got)
			}
		}
	}
}
