package mapper

import (
	"slices"
	"sort"
	"testing"

	"secureloop/internal/mapping"
	"secureloop/internal/workload"
)

// The invariants below gate the optimised search: the monotone capacity
// breaks assume ascending tile-candidate lists, the spatial fan-out assumes
// spatialChoices always yields a usable (possibly degenerate) choice, and
// the tiling-level pruning assumes topK.kthCycles / prune never lose a
// candidate that belongs in the final top-k regardless of offer order.

func TestSpatialFactorsEdgeCases(t *testing.T) {
	cases := []struct {
		bound, axis int
		want        []int
	}{
		{1, 14, []int{1}},    // bound 1: nothing to spread
		{55, 1, []int{1}},    // axis 1: nowhere to spread
		{1, 1, []int{1}},     //
		{14, 14, []int{14}},  // bound == axis: exact fit, single factor
		{12, 14, []int{12}},  // bound < axis: bound itself divides evenly
		{13, 8, []int{8, 1}}, // prime bound > axis: full axis + trivial divisor
		{27, 14, []int{14, 9}},
		{2, 14, []int{2}},
	}
	for _, c := range cases {
		got := spatialFactors(c.bound, c.axis)
		if len(got) != len(c.want) {
			t.Errorf("spatialFactors(%d,%d) = %v, want %v", c.bound, c.axis, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("spatialFactors(%d,%d) = %v, want %v", c.bound, c.axis, got, c.want)
				break
			}
		}
		for _, f := range got {
			if f < 1 || f > c.axis {
				t.Errorf("spatialFactors(%d,%d): factor %d outside [1,%d]", c.bound, c.axis, f, c.axis)
			}
		}
	}
}

// TestSpatialFactorsMatchesLinearScan: the divisor-pair search picks the
// factors a linear scan down from the array axis picks.
func TestSpatialFactorsMatchesLinearScan(t *testing.T) {
	scan := func(bound, axis int) []int {
		if bound <= 1 || axis <= 1 {
			return []int{1}
		}
		full := min(bound, axis)
		div := 1
		for f := full; f >= 1; f-- {
			if bound%f == 0 {
				div = f
				break
			}
		}
		if div == full {
			return []int{full}
		}
		return []int{full, div}
	}
	for bound := -2; bound <= 5000; bound++ {
		for axis := -2; axis <= 200; axis++ {
			if got, want := spatialFactors(bound, axis), scan(bound, axis); !slices.Equal(got, want) {
				t.Fatalf("spatialFactors(%d,%d) = %v, linear scan %v", bound, axis, got, want)
			}
		}
	}
}

func TestSpatialChoicesEdgeCases(t *testing.T) {
	check := func(name string, l *workload.Layer, pesX, pesY int) []spatialChoice {
		t.Helper()
		sps := spatialChoices(l, pesX, pesY)
		if len(sps) == 0 {
			t.Fatalf("%s: no spatial choices", name)
		}
		seen := map[spatialChoice]bool{}
		for _, sp := range sps {
			if seen[sp] {
				t.Errorf("%s: duplicate choice %+v", name, sp)
			}
			seen[sp] = true
			if sp.fx < 1 || sp.fx > pesX || sp.fy < 1 || sp.fy > pesY {
				t.Errorf("%s: choice %+v exceeds %dx%d array", name, sp, pesX, pesY)
			}
			if sp.fx > mapping.Bound(l, sp.dimX) || sp.fy > mapping.Bound(l, sp.dimY) {
				t.Errorf("%s: choice %+v exceeds layer bounds", name, sp)
			}
		}
		// The degenerate no-spreading choice is always present (the
		// fallback for tiny layers).
		last := sps[len(sps)-1]
		if last.fx != 1 || last.fy != 1 {
			t.Errorf("%s: degenerate choice missing, got %+v", name, last)
		}
		return sps
	}

	// All bounds 1: only the degenerate choice survives.
	one := &workload.Layer{Name: "one", C: 1, M: 1, R: 1, S: 1, P: 1, Q: 1,
		StrideH: 1, StrideW: 1, N: 1, WordBits: 16}
	if sps := check("all-1", one, 14, 12); len(sps) != 1 {
		t.Errorf("all-1 layer: %d choices, want only the degenerate one", len(sps))
	}

	// Bound equal to the axis on both axes: exact-fit factors must appear.
	exact := &workload.Layer{Name: "exact", C: 3, M: 12, R: 3, S: 3, P: 14, Q: 14,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16}
	sps := check("exact", exact, 14, 12)
	foundExact := false
	for _, sp := range sps {
		if sp.dimX == mapping.DimQ && sp.fx == 14 && sp.dimY == mapping.DimM && sp.fy == 12 {
			foundExact = true
		}
	}
	if !foundExact {
		t.Error("exact-fit layer: Q=14 x M=12 spreading not enumerated")
	}

	// Prime bounds larger than the array: both the full-axis factor and the
	// trivial divisor appear; nothing exceeds the array.
	prime := &workload.Layer{Name: "prime", C: 13, M: 17, R: 3, S: 3, P: 31, Q: 31,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16}
	check("prime", prime, 14, 12)

	// 1-wide PE axis: no X spreading is ever proposed beyond factor 1.
	for _, sp := range check("axis-1", exact, 1, 12) {
		if sp.fx != 1 {
			t.Errorf("pesX=1 but choice %+v spreads X", sp)
		}
	}
}

// TestTopKAdversarialOfferOrders drives offer/kthCycles/prune with the same
// candidate multiset in antagonistic orders (ascending, descending, and an
// interleave with repeated signatures designed to trip over-eager pruning)
// and checks every order converges to the brute-force top-k.
func TestTopKAdversarialOfferOrders(t *testing.T) {
	mk := func(qTile int, cycles int64) Candidate {
		m := mapping.New()
		m.SetFactor(mapping.GLB, mapping.DimQ, qTile)
		return Candidate{Mapping: m, Cycles: cycles, OffchipBits: cycles * 3}
	}
	// 40 distinct signatures; per-sig best is cycles = 100 + 7*q.
	type off struct {
		q      int
		cycles int64
	}
	var offers []off
	for q := 1; q <= 40; q++ {
		best := int64(100 + 7*q)
		offers = append(offers, off{q, best + 50}, off{q, best}, off{q, best + 10})
	}
	wantBest := func(k int) []int64 {
		var per []int64
		for q := 1; q <= 40; q++ {
			per = append(per, int64(100+7*q))
		}
		sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
		return per[:k]
	}

	orders := map[string]func([]off) []off{
		"given": func(o []off) []off { return o },
		"descending": func(o []off) []off {
			s := append([]off(nil), o...)
			sort.Slice(s, func(i, j int) bool { return s[i].cycles > s[j].cycles })
			return s
		},
		"ascending": func(o []off) []off {
			s := append([]off(nil), o...)
			sort.Slice(s, func(i, j int) bool { return s[i].cycles < s[j].cycles })
			return s
		},
		// All worst offers first, then the bests, then the mediums: the
		// map fills with bad entries and must prune/replace them, and the
		// good offers must still be readmitted (a strictly better offer
		// always passes the kth gate).
		"worst-first": func(o []off) []off {
			s := make([]off, 0, len(o))
			for pass := 0; pass < 3; pass++ {
				for i := pass; i < len(o); i += 3 {
					s = append(s, o[i])
				}
			}
			return s
		},
	}
	for name, order := range orders {
		for _, k := range []int{1, 3, 5} {
			tk := newTopK(k)
			for _, o := range order(offers) {
				tk.offer(mk(o.q, o.cycles))
			}
			if len(tk.best) > 4*k {
				t.Errorf("%s/k=%d: map grew to %d entries", name, k, len(tk.best))
			}
			got := tk.sorted()
			want := wantBest(k)
			if len(got) != k {
				t.Fatalf("%s/k=%d: %d candidates", name, k, len(got))
			}
			for i := range got {
				if got[i].Cycles != want[i] {
					t.Errorf("%s/k=%d: rank %d cycles %d, want %d", name, k, i, got[i].Cycles, want[i])
				}
			}
		}
	}
}

// TestTopKKthCyclesAfterPrune: pruning must not lower the reported k-th
// threshold below the true k-th distinct-signature best (which would
// over-prune), nor lose an improvement offered to a pruned signature.
func TestTopKKthCyclesAfterPrune(t *testing.T) {
	mk := func(qTile int, cycles int64) Candidate {
		m := mapping.New()
		m.SetFactor(mapping.GLB, mapping.DimQ, qTile)
		return Candidate{Mapping: m, Cycles: cycles}
	}
	tk := newTopK(2)
	// Fill well past the prune threshold (4k = 8 signatures) with mediocre
	// distinct signatures, each better than the last so every offer is
	// admitted and prune actually fires.
	for q := 1; q <= 20; q++ {
		tk.offer(mk(q, int64(1021-q)))
	}
	kth, full := tk.kthCycles()
	if !full || kth != 1002 {
		t.Fatalf("kth = %d (full=%v), want 1002", kth, full)
	}
	// A signature that was pruned away returns with a strictly better
	// offer: it must displace the incumbents.
	tk.offer(mk(15, 500))
	tk.offer(mk(16, 600))
	out := tk.sorted()
	if len(out) != 2 || out[0].Cycles != 500 || out[1].Cycles != 600 {
		t.Fatalf("after readmission top-2 = %+v", out)
	}
	if kth, _ := tk.kthCycles(); kth != 600 {
		t.Errorf("kth after readmission = %d, want 600", kth)
	}
}
