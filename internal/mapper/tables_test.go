package mapper

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/mapping"
	"secureloop/internal/workload"
)

// TestGuidedTablesMatchModel pins the search's one cost arithmetic to the
// full model: at every lattice point of every spatial choice the table
// occupancy must equal GLBBitsUsed, and at every feasible point the table
// compute cycles must equal TemporalIterations and each permutation
// heuristic's table traffic must equal Offchip(l).TotalElems() under that
// PermDRAM, and be at least the point's distinct-tile floor, bit for bit.
// This is what makes the Epsilon = 0 byte-identity argument an arithmetic
// fact rather than an approximation.
func TestGuidedTablesMatchModel(t *testing.T) {
	base := arch.Base()
	small := base.WithPEs(8, 8).WithGlobalBuffer(16 * 1024)
	layers := []*workload.Layer{
		workload.AlexNet().Layer(1),
		workload.MobileNetV2().Layer(1), // depthwise
		downsampleLayer(),               // the stride exceeds the filter extent
		{Name: "prime", C: 13, M: 17, R: 3, S: 3, P: 29, Q: 29,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16},
	}
	for _, spec := range []*arch.Spec{&base, &small} {
		for _, l := range layers {
			req := Request{
				Layer: l, PEsX: spec.PEsX, PEsY: spec.PEsY,
				GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
				EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
				TopK:                   6,
			}
			minTraffic := trafficFloor(req)
			for _, sp := range spatialChoices(l, req.PEsX, req.PEsY) {
				g := newGuidedPart(req, sp, minTraffic)
				if g == nil {
					continue
				}
				for ic := range g.ax[0].cands {
					for im := range g.ax[1].cands {
						for ip := range g.ax[2].cands {
							for iq := range g.ax[3].cands {
								idx := [4]int{ic, im, ip, iq}
								if err := checkTablesAtPoint(g, req, idx, true); err != nil {
									t.Fatalf("%s %v point %v: %v", l.Name, sp, idx, err)
								}
							}
						}
					}
				}
			}
		}
	}
}

// FuzzGuidedTablesMatchModel draws layer shapes, PE arrays and buffer sizes
// inside the Validate caps, and one lattice point of one spatial choice.
// Where every datatype's exact traffic fits in int64 the tables must equal
// the model; where one does not, the tables must panic. The model
// multiplies the traffic unchecked and wraps there, but the search's
// checked multiplies turn such a shape into an error instead of a wrong
// answer.
func FuzzGuidedTablesMatchModel(f *testing.F) {
	// AlexNet conv2, a depthwise layer, ResNet-18's stride-2 downsample, and
	// a shape whose weight traffic overflows int64 at a feasible point while
	// its compute cycles fit (C = 2^20 spread over 1024 PE columns, P = Q =
	// 2^16 untiled, R = S = 64). Fields are one below the layer's values.
	f.Add(uint32(47), uint32(255), uint32(26), uint32(26), uint32(4), uint32(4), uint32(0), uint32(0), uint32(2), uint32(2),
		false, uint8(15), uint32(13), uint32(11), uint64(131<<10-1), uint64(511), uint16(3), uint32(0x01020304))
	f.Add(uint32(31), uint32(31), uint32(111), uint32(111), uint32(2), uint32(2), uint32(0), uint32(0), uint32(1), uint32(1),
		true, uint8(7), uint32(27), uint32(23), uint64(64<<10-1), uint64(255), uint16(7), uint32(0x05060708))
	f.Add(uint32(63), uint32(127), uint32(27), uint32(27), uint32(0), uint32(0), uint32(1), uint32(1), uint32(0), uint32(0),
		false, uint8(15), uint32(13), uint32(11), uint64(16<<10-1), uint64(511), uint16(0), uint32(0))
	f.Add(uint32(1<<20-1), uint32(0), uint32(1<<16-1), uint32(1<<16-1), uint32(63), uint32(63), uint32(0), uint32(0), uint32(32768), uint32(32768),
		false, uint8(7), uint32(1023), uint32(63), uint64(1<<40-1), uint64(1<<20-1), uint16(11), uint32(0))
	f.Fuzz(func(t *testing.T, c, m, p, q, r, s, strideH, strideW, padH, padW uint32,
		depthwise bool, wordBits uint8, pesX, pesY uint32, glbBytes, rfBytes uint64, choice uint16, point uint32) {
		const capDim = 1 << 20
		dim := func(v uint32) int { return int(v%capDim) + 1 }
		l := &workload.Layer{Name: "fuzz", C: dim(c), M: dim(m), P: dim(p), Q: dim(q), R: dim(r), S: dim(s),
			StrideH: dim(strideH), StrideW: dim(strideW), PadH: int(padH % (capDim + 1)), PadW: int(padW % (capDim + 1)),
			N: 1, Depthwise: depthwise, WordBits: int(wordBits%64) + 1}
		if depthwise {
			l.M = l.C
		}
		spec := arch.Base().WithPEs(dim(pesX), dim(pesY)).WithGlobalBuffer(int(glbBytes%(1<<40)) + 1)
		spec.RegFileBytesPerPE = int(rfBytes%(1<<40)) + 1
		if l.Validate() != nil || spec.Validate() != nil {
			t.Skip("outside the Validate caps")
		}
		req := Request{
			Layer: l, PEsX: spec.PEsX, PEsY: spec.PEsY,
			GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
			EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
			TopK:                   6,
		}
		sps := spatialChoices(l, req.PEsX, req.PEsY)
		sp := sps[int(choice)%len(sps)]
		var g *guidedPart
		if panics(func() { g = newGuidedPart(req, sp, trafficFloor(req)) }) {
			t.Skip("the spatial choice's tables overflow; the search reports an error")
		}
		if g == nil {
			t.Skip("RF-infeasible spatial choice")
		}
		var idx [4]int
		for i := range idx {
			idx[i] = int(point>>(8*i)&0xff) % len(g.ax[i].cands)
		}
		if err := checkTablesAtPoint(g, req, idx, false); err != nil {
			t.Fatalf("%+v on %dx%d, %v point %v: %v", *l, req.PEsX, req.PEsY, sp, idx, err)
		}
	})
}

// checkTablesAtPoint compares the tables of part g at lattice point idx with
// the full model on the same tiling, and reports the first disagreement.
// The occupancy is compared everywhere; the compute cycles and traffic only
// where the point fits the GLB, the only points a search scores. A table
// value must panic exactly where the model's checked arithmetic panics, and
// a permutation's traffic exactly where some datatype's exact traffic does
// not fit in int64. With floorFits the traffic must also be at least the
// point's distinct-tile floor; the fuzz target leaves that out, because the
// unchecked sum of the datatypes' traffic may wrap.
func checkTablesAtPoint(g *guidedPart, req Request, idx [4]int, floorFits bool) error {
	l := req.Layer
	for i, d := range tiledDims {
		setGLBTile(g.m, l, d, g.ax[i].cands[idx[i]])
	}
	var elems [3]int64
	var occ, wantOcc int64
	tabPanic := panics(func() { elems, occ = g.pointOcc(int64(l.WordBits), idx) })
	modelPanic := panics(func() { wantOcc = g.m.GLBBitsUsed(l) })
	if err := agree("occupancy", tabPanic, modelPanic, occ, wantOcc); err != nil || tabPanic || occ > req.GLBBits {
		return err
	}
	var compute, wantCompute int64
	tabPanic = panics(func() { compute = g.pointCompute(idx) })
	modelPanic = panics(func() { wantCompute = g.m.TemporalIterations(l) })
	if err := agree("compute cycles", tabPanic, modelPanic, compute, wantCompute); err != nil || tabPanic {
		return err
	}
	var floor int64
	floorPanic := panics(func() { floor = g.pointFloor(idx, elems) })
	for _, perm := range permHeuristics {
		mm := *g.m
		mm.PermDRAM = perm
		tr := mm.Offchip(l)
		fits := trafficFits(&mm, l, tr)
		var got int64
		tabPanic := panics(func() { got = g.offchipElems(perm, idx, elems) })
		switch {
		case tabPanic != !fits:
			return fmt.Errorf("perm %v: table traffic panics %v, exact traffic fits int64 %v", perm, tabPanic, fits)
		case fits && got != tr.TotalElems():
			return fmt.Errorf("perm %v: table traffic %d elems, Offchip %d", perm, got, tr.TotalElems())
		case fits && floorFits && (floorPanic || got < floor):
			return fmt.Errorf("perm %v: traffic %d below the distinct-tile floor %d (floor panics %v)", perm, got, floor, floorPanic)
		}
	}
	return nil
}

// trafficFits reports whether every datatype's exact off-chip traffic of m
// under its PermDRAM fits in int64: the model's visit counts
// (tr.TileFetches) times its GLB tile elements, and for the ofmap the
// partial-sum re-reads of every visit beyond its distinct tiles.
func trafficFits(m *mapping.Mapping, l *workload.Layer, tr mapping.OffchipTraffic) bool {
	fits := func(v, tile int64) bool {
		hi, lo := bits.Mul64(uint64(v), uint64(tile))
		return v >= 0 && hi == 0 && lo <= math.MaxInt64
	}
	for _, dt := range workload.Datatypes {
		if !fits(tr.TileFetches[dt], m.GLBTileElems(l, dt)) {
			return false
		}
	}
	nOf := int64(1)
	for _, d := range mapping.Dims {
		if mapping.Relevant(l, workload.Ofmap, d) {
			nOf *= int64(m.OuterCount(l, mapping.GLB, d))
		}
	}
	vOf := tr.TileFetches[workload.Ofmap]
	return vOf <= nOf || fits(vOf-nOf, m.GLBTileElems(l, workload.Ofmap))
}

// agree compares one table value with the model's.
func agree(what string, tabPanic, modelPanic bool, got, want int64) error {
	switch {
	case tabPanic != modelPanic:
		return fmt.Errorf("%s: table panics %v, model panics %v", what, tabPanic, modelPanic)
	case !tabPanic && got != want:
		return fmt.Errorf("%s: table %d, model %d", what, got, want)
	}
	return nil
}

// panics reports whether fn panics.
func panics(fn func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	fn()
	return false
}
