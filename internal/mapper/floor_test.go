package mapper

import (
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/workload"
)

// TestSearchLowerBoundSound pins the floor's contract: on every AlexNet
// layer and ResNet-18's layer2.0.downsample, whose stride exceeds its
// filter extent, across PE-array shapes, buffer sizes and effective
// bandwidths, SearchLowerBound never exceeds the cost of the best candidate
// either search mode returns — the property the DSE coordinator's dominance
// pruning is sound against.
func TestSearchLowerBoundSound(t *testing.T) {
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
}

// TestSearchLowerBoundModeIndependent pins that the bound never reads the
// search options: the coordinator memoises it per (spec, bandwidth) and
// reuses it across exhaustive and guided sweeps.
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
	want := SearchLowerBound(req)
	for _, opt := range []Options{
		{Mode: Guided},
		{Mode: Guided, Epsilon: 0.5},
		{Mode: Exhaustive},
	} {
		r := req
		r.Opt = opt
		r.TopK = 6
		if got := SearchLowerBound(r); got != want {
			t.Errorf("opt %+v: bound %d != %d", opt, got, want)
		}
	}
}
