package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

// TestParallelMappingMatchesSerial: fanning the per-layer step-1 searches
// across a worker pool must not change any result — totals, per-layer
// stats, mappings and assignments are all identical to the serial path.
func TestParallelMappingMatchesSerial(t *testing.T) {
	net := workload.AlexNet()
	for _, alg := range []Algorithm{Unsecure, CryptOptSingle, CryptOptCross} {
		serial := testScheduler()
		serial.MaxParallel = 1
		rs, err := serial.ScheduleNetwork(net, alg)
		if err != nil {
			t.Fatal(err)
		}
		par := testScheduler()
		rp, err := par.ScheduleNetwork(net, alg)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Total != rs.Total {
			t.Errorf("%v: parallel total %+v != serial %+v", alg, rp.Total, rs.Total)
		}
		if rp.Traffic != rs.Traffic {
			t.Errorf("%v: parallel traffic %+v != serial %+v", alg, rp.Traffic, rs.Traffic)
		}
		if !reflect.DeepEqual(rp.Layers, rs.Layers) {
			t.Errorf("%v: parallel per-layer results differ from serial", alg)
		}
	}
}

// TestAnnealParallelMatchesSerial: step 3 anneals independent multi-layer
// segments concurrently; at any parallelism the choice vectors, cycles and
// energy must be identical to the serial run. ResNet18 has several
// multi-layer segments, so this actually exercises concurrent segments (and
// the concurrent pair-matrix precompute feeding them).
func TestAnnealParallelMatchesSerial(t *testing.T) {
	net := workload.ResNet18()
	if n := len(net.Segments); n < 3 {
		t.Fatalf("want a multi-segment network, got %d segments", n)
	}
	serial := testScheduler()
	serial.MaxParallel = 1
	rs, err := serial.ScheduleNetwork(net, CryptOptCross)
	if err != nil {
		t.Fatal(err)
	}
	par := testScheduler()
	par.MaxParallel = 8
	rp, err := par.ScheduleNetwork(net, CryptOptCross)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs.Layers {
		if rs.Layers[i].Choice != rp.Layers[i].Choice {
			t.Errorf("layer %d: serial choice %d != parallel choice %d",
				i, rs.Layers[i].Choice, rp.Layers[i].Choice)
		}
	}
	if rs.Total.Cycles != rp.Total.Cycles || rs.Total.EnergyPJ != rp.Total.EnergyPJ {
		t.Errorf("serial total %+v != parallel total %+v", rs.Total, rp.Total)
	}
	if !reflect.DeepEqual(rs.Layers, rp.Layers) {
		t.Error("parallel per-layer results differ from serial")
	}
}

// testRun builds the annealing state for one segment of the network, as
// ScheduleNetwork does before step 3.
func testRun(t *testing.T, s *Scheduler, net *workload.Network) *run {
	t.Helper()
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
			t.Fatal(err)
		}
		if len(r.candidates[i]) == 0 {
			t.Fatalf("no candidates for layer %d", i)
		}
	}
	return r
}

// TestDeltaCostMatchesFullRecomputation: for random choice vectors and
// random single-layer moves, the dense-memo DeltaCost path must equal a
// full recomputation on an independent, unmemoised problem instance — for
// both objectives.
func TestDeltaCostMatchesFullRecomputation(t *testing.T) {
	net := workload.AlexNet()
	for _, objective := range []Objective{MinLatency, MinEDP} {
		s := testScheduler()
		s.Objective = objective
		fast := testRun(t, s, net)
		slow := testRun(t, s, net)
		slow.memoOff = true

		seg := net.Segments[2] // the conv3-conv5 chain
		if len(seg) < 3 {
			t.Fatal("expected a multi-layer segment")
		}
		fast.precomputePairMatrices([][]int{seg}, 4)
		fast.prepareLayerMemos([][]int{seg})
		fastProb := &segmentProblem{run: fast, segment: seg}
		slowProb := &segmentProblem{run: slow, segment: seg}

		rng := rand.New(rand.NewSource(9))
		cur := make([]int, len(seg))
		for trial := 0; trial < 100; trial++ {
			for j, li := range seg {
				cur[j] = rng.Intn(len(fast.candidates[li]))
			}
			i := rng.Intn(len(seg))
			next := rng.Intn(len(fast.candidates[seg[i]]))

			if got, want := fastProb.Cost(cur), slowProb.Cost(cur); got != want {
				t.Fatalf("%v trial %d: memoised Cost %g != full recomputation %g",
					objective, trial, got, want)
			}
			mod := append([]int(nil), cur...)
			mod[i] = next
			if got, want := fastProb.DeltaCost(cur, i, next), slowProb.Cost(mod); got != want {
				t.Fatalf("%v trial %d: DeltaCost(%v,%d,%d) = %g, full recomputation %g",
					objective, trial, cur, i, next, got, want)
			}
		}
		if fast.layerEvals.Load() >= slow.layerEvals.Load() {
			t.Errorf("%v: memoised path evaluated %d layers, unmemoised %d — memo ineffective",
				objective, fast.layerEvals.Load(), slow.layerEvals.Load())
		}
	}
}

// TestPairMatrixPrecomputeMatchesLazy: the fanned-out precompute must fill
// exactly the entries the lazy serial path would, with identical costs and
// assignments.
func TestPairMatrixPrecomputeMatchesLazy(t *testing.T) {
	net := workload.AlexNet()
	s := testScheduler()
	pre := testRun(t, s, net)
	lazy := testRun(t, s, net)
	seg := net.Segments[2]
	pre.precomputePairMatrices([][]int{seg}, 8)
	for i := 0; i+1 < len(seg); i++ {
		a, b := seg[i], seg[i+1]
		for ca := range pre.candidates[a] {
			for cb := range pre.candidates[b] {
				gc, ga := pre.pairCosts(a, b, ca, cb)
				wc, wa := lazy.pairCosts(a, b, ca, cb)
				if gc != wc || ga != wa {
					t.Fatalf("pair (%d,%d) choices (%d,%d): precomputed (%+v,%+v) != lazy (%+v,%+v)",
						a, b, ca, cb, gc, ga, wc, wa)
				}
			}
		}
	}
}

// TestSegmentProblemImplementsIncremental guards the interface assertion
// the annealing fast path depends on.
func TestSegmentProblemImplementsIncremental(t *testing.T) {
	var p interface{} = &segmentProblem{}
	if _, ok := p.(interface {
		DeltaCost(choices []int, i, next int) float64
	}); !ok {
		t.Fatal("segmentProblem does not implement DeltaCost")
	}
}
