// The coordinator's cheap pre-pass: for every design point, the exact die
// area and a lower bound on the scheduled workload cycles, computed
// without running the full scheduler — no tiling search, no AuthBlock
// assignment, no annealing. Area reuses the accelergy model expression of
// evaluateWithBaseline verbatim, so it is byte-identical to the evaluated
// point's. The cycle bound combines the roofline compute roof with the
// mapper's per-layer search floor (mapper.SearchLowerBound, built from the
// best-first search's per-dimension traffic/compute tables); DESIGN.md §14
// gives the soundness argument.

package dse

import (
	"secureloop/internal/accelergy"
	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/roofline"
	"secureloop/internal/workload"
)

// PointBound is the pre-pass estimate for one design point: the exact area
// (identical to the evaluated DesignPoint's AreaMM2) and a lower bound on
// the scheduled total cycles. CycleLB == 0 means "no usable bound" — such a
// point is never pruned.
type PointBound struct {
	AreaMM2 float64
	CycleLB int64
}

// pointArea is the exact die area of a design point. evaluateWithBaseline
// stores it too, so a bound-only point and an evaluated point report
// bit-identical areas.
func pointArea(spec arch.Spec, crypto cryptoengine.Config) float64 {
	return accelergy.TotalAreaMM2(spec.NumPEs(), spec.GlobalBufferBytes, crypto.TotalAreaKGates())
}

// networkCycleLB returns a lower bound on Total.Cycles of any schedule of
// net on the design (per-layer Stats.Cycles sum over layers; each layer's
// Stats.Cycles is bounded below by its mapper search floor and by the
// roofline compute roof, DESIGN.md §14). It returns 0 — never prune —
// when the bound arithmetic panics on a pathological layer shape (the
// mapper's checked multiplies), mirroring how the full search surfaces
// such layers as per-point errors rather than process deaths.
func networkCycleLB(net *workload.Network, spec arch.Spec, crypto cryptoengine.Config, alg core.Algorithm) int64 {
	var total int64
	err := obs.Guard(func() error {
		// Compute roof in MACs/cycle, via the roofline model so the bound
		// and Figure 12 share one definition of the roof.
		rl := roofline.FromSecureArch(&spec, crypto)
		peakMACs := rl.PeakOpsPerSec / spec.ClockHz
		effBW := core.EffectiveBandwidth(spec, crypto, alg)
		for i := range net.Layers {
			l := &net.Layers[i]
			lb := mapper.SearchLowerBound(mapper.Request{
				Layer: l,
				PEsX:  spec.PEsX, PEsY: spec.PEsY,
				GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
				EffectiveBytesPerCycle: effBW,
				TopK:                   1,
			})
			// Roofline compute roof: any mapping's temporal trip count is at
			// least MACs over the PE count (truncated, so rounding can only
			// weaken the bound).
			if peakMACs > 0 {
				if computeLB := int64(float64(l.MACs()) / peakMACs); computeLB > lb {
					lb = computeLB
				}
			}
			total = addSat64(total, lb)
		}
		return nil
	})
	if err != nil {
		return 0
	}
	return total
}

// addSat64 adds non-negative cycle counts, saturating at MaxInt64 instead
// of wrapping (a wrapped bound could over-prune; a saturated one cannot,
// since any schedule reaching it would overflow the scheduler's own checked
// arithmetic first).
func addSat64(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return 1<<63 - 1
}
