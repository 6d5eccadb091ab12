package authblock

import (
	"math"
	"testing"
)

// FuzzEvaluateCrossEquivalence cross-checks the shared-decomposition fast
// path against the retained per-candidate reference on fuzzer-generated
// grid pairs: the cost breakdown must match bit for bit for every
// orientation, the per-orientation bound must not exceed it, and the
// bound-pruned optimal search must agree with the exhaustive reference
// search.
func FuzzEvaluateCrossEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(10), uint8(10), uint8(2), uint8(4), uint8(3),
		uint8(3), uint8(3), uint8(5), uint8(2), uint8(4), uint8(1), uint8(0), uint8(7))
	f.Add(uint8(1), uint8(6), uint8(12), uint8(1), uint8(1), uint8(12),
		uint8(1), uint8(2), uint8(6), uint8(1), uint8(6), uint8(0), uint8(1), uint8(33))
	f.Fuzz(func(t *testing.T, pc, ph, pw, tc, th, tw, cc, wh, ww, sh, sw, offh, offw, u uint8) {
		p := ProducerGrid{
			C: int(pc)%6 + 1, H: int(ph)%12 + 2, W: int(pw)%12 + 2,
			WritesPerTile: 1 + int64(tc)%2,
		}
		p.TileC = int(tc)%p.C + 1
		p.TileH = int(th)%p.H + 1
		p.TileW = int(tw)%p.W + 1
		c := ConsumerGrid{
			TileC: int(cc)%p.C + 1,
			WinH:  int(wh)%p.H + 1, WinW: int(ww)%p.W + 1,
			StepH: int(sh)%4 + 1, StepW: int(sw)%4 + 1,
			OffH: -(int(offh) % 2), OffW: -(int(offw) % 2),
			CountC: int(cc)%3 + 1, CountH: int(wh)%5 + 1, CountW: int(ww)%5 + 1,
			FetchesPerTile: 1 + int64(sh)%3,
		}
		if p.Validate() != nil || c.Validate() != nil {
			t.Skip()
		}
		flat := p.TileC * p.TileH * p.TileW
		uu := int(u)%(flat+4) + 1
		par := DefaultParams()
		d := decompositionFor(p, c)
		for _, o := range Orientations {
			got := EvaluateCross(p, c, o, uu, par)
			want := evaluateCrossReference(p, c, o, uu, par)
			if got != want {
				t.Fatalf("p=%+v c=%+v %v u=%d: fast %+v != reference %+v", p, c, o, uu, got, want)
			}
			if lb := d.orientBound(o, uu, got.HashWriteBits, c.FetchesPerTile, par, math.MaxInt64); lb > got.Total() {
				t.Fatalf("p=%+v c=%+v %v u=%d: bound %d exceeds cost %d", p, c, o, uu, lb, got.Total())
			}
		}
		if got, want := optimal(t, p, c, par), OptimalReference(p, c, par); got != want {
			t.Fatalf("p=%+v c=%+v: Optimal %+v != reference %+v", p, c, got, want)
		}
	})
}

// FuzzCountBoxBlocks cross-checks the analytic congruence counter against
// the enumeration oracle on fuzzer-chosen boxes, and checks that boxBound
// never exceeds the oracle's blocks or covered elements.
func FuzzCountBoxBlocks(f *testing.F) {
	f.Add(uint8(1), uint8(30), uint8(30), uint8(0), uint8(0), uint8(0), uint8(30), uint8(10), uint8(30), uint8(0), uint8(10))
	f.Add(uint8(4), uint8(7), uint8(9), uint8(1), uint8(3), uint8(1), uint8(5), uint8(2), uint8(8), uint8(1), uint8(37))
	f.Fuzz(func(t *testing.T, tc, tp, tq, c0, c1, p0, p1, q0, q1, orient, u uint8) {
		tC := int(tc)%6 + 1
		tP := int(tp)%16 + 1
		tQ := int(tq)%16 + 1
		b := Box{C0: int(c0) % tC, P0: int(p0) % tP, Q0: int(q0) % tQ}
		b.C1 = b.C0 + 1 + int(c1)%(tC-b.C0)
		b.P1 = b.P0 + 1 + int(p1)%(tP-b.P0)
		b.Q1 = b.Q0 + 1 + int(q1)%(tQ-b.Q0)
		o := Orientations[int(orient)%int(NumOrientations)]
		uu := int(u)%(tC*tP*tQ+4) + 1

		gb, gc := CountBoxBlocks(tC, tP, tQ, b, o, uu)
		wb, wc := countBoxBlocksBrute(tC, tP, tQ, b, o, uu)
		if gb != wb || gc != wc {
			t.Fatalf("tile %dx%dx%d box %+v %v u=%d: got (%d,%d) want (%d,%d)",
				tC, tP, tQ, b, o, uu, gb, gc, wb, wc)
		}
		if lb, lc := boxBound(tC, tP, tQ, b, o, uu); lb > wb || lc > wc {
			t.Fatalf("tile %dx%dx%d box %+v %v u=%d: bound (%d,%d) exceeds exact (%d,%d)",
				tC, tP, tQ, b, o, uu, lb, lc, wb, wc)
		}
	})
}
