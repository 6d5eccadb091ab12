package mapper

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/mapping"
	"secureloop/internal/model"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// guidedRequest decorates a base request with guided-mode options.
func guidedRequest(req Request, eps float64, warm bool) Request {
	req.Opt = Options{Mode: Guided, Epsilon: eps, DisableWarmStart: !warm}
	return req
}

// TestGuidedSearchEquivalence is the oracle guard of the guided search: at
// Epsilon = 0, across the same layer × arch × bandwidth × k matrix as
// TestSearchEquivalence, the guided result must be byte-identical to
// searchReference — cold, and again with whatever the warm-start store has
// accumulated (the Epsilon = 0 result is provably independent of seeding).
func TestGuidedSearchEquivalence(t *testing.T) {
	ResetCaches()
	layers := equivalenceLayers()
	for _, spec := range equivalenceSpecs() {
		for _, l := range layers {
			for _, bw := range []float64{float64(spec.DRAM.BytesPerCycle), 1.5} {
				for _, k := range []int{1, 4, 6} {
					req := Request{
						Layer: l,
						PEsX:  spec.PEsX, PEsY: spec.PEsY,
						GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
						EffectiveBytesPerCycle: bw,
						TopK:                   k,
					}
					name := fmt.Sprintf("%s/pe%dx%d/bw%.1f/k%d", l.Name, spec.PEsX, spec.PEsY, bw, k)
					want := searchReference(req)
					for _, warm := range []bool{false, true} {
						got, err := SearchCtx(context.Background(), guidedRequest(req, 0, warm))
						if err != nil {
							t.Fatalf("%s warm=%v: %v", name, warm, err)
						}
						assertSameCandidates(t, fmt.Sprintf("%s/warm=%v", name, warm), got, want)
					}
				}
			}
		}
	}
}

func assertSameCandidates(t *testing.T, name string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d candidates, reference has %d", name, len(got), len(want))
		return
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

// TestGuidedEpsilonWithinBound verifies the relaxed mode's contract: at
// Epsilon > 0 every returned rank's scheduling cycles stay within
// (1+Epsilon)× of the exhaustive rank's, and the candidate count matches
// (the stop rule only fires once k distinct tilings exist).
func TestGuidedEpsilonWithinBound(t *testing.T) {
	const eps = 0.01
	layers := equivalenceLayers()
	for _, spec := range equivalenceSpecs() {
		for _, l := range layers {
			req := Request{
				Layer: l,
				PEsX:  spec.PEsX, PEsY: spec.PEsY,
				GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
				EffectiveBytesPerCycle: float64(spec.DRAM.BytesPerCycle),
				TopK:                   6,
			}
			name := fmt.Sprintf("%s/pe%dx%d", l.Name, spec.PEsX, spec.PEsY)
			want := searchReference(req)
			got, err := SearchCtx(context.Background(), guidedRequest(req, eps, false))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d candidates, reference has %d", name, len(got), len(want))
				continue
			}
			for i := range got {
				if float64(got[i].Cycles) > (1+eps)*float64(want[i].Cycles) {
					t.Errorf("%s[%d]: guided cycles %d exceed (1+ε)×%d",
						name, i, got[i].Cycles, want[i].Cycles)
				}
			}
		}
	}
}

// TestGuidedTablesMatchAnalyze pins the factorized bound arithmetic to the
// mapping package: for every lattice point of every spatial choice, the
// table-derived occupancy must equal GLBBitsUsed and the table-derived
// lower bound must equal the one scoreTiling computes from Mapping.Analyze,
// bit for bit. This is what makes the Epsilon = 0 byte-identity argument an
// arithmetic fact rather than an approximation.
func TestGuidedTablesMatchAnalyze(t *testing.T) {
	base := arch.Base()
	small := base.WithPEs(8, 8).WithGlobalBuffer(16 * 1024)
	layers := []*workload.Layer{
		workload.AlexNet().Layer(1),
		workload.MobileNetV2().Layer(1), // depthwise
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
			minTraffic := int64(float64(l.TotalVolume()*int64(l.WordBits)) / 8 / req.EffectiveBytesPerCycle)
			wb := int64(l.WordBits)
			for _, sp := range spatialChoices(l, req.PEsX, req.PEsY) {
				g := newGuidedPart(req, sp, minTraffic)
				if g == nil {
					continue
				}
				for ic := range g.ax[0].cands {
					for im := range g.ax[1].cands {
						for ip := range g.ax[2].cands {
							for iq := range g.ax[3].cands {
								setGLBTile(g.m, l, mapping.DimC, g.ax[0].cands[ic])
								setGLBTile(g.m, l, mapping.DimM, g.ax[1].cands[im])
								setGLBTile(g.m, l, mapping.DimP, g.ax[2].cands[ip])
								setGLBTile(g.m, l, mapping.DimQ, g.ax[3].cands[iq])
								wE, iE, oE, occ := g.pointOcc(wb, ic, im, ip, iq)
								if want := g.m.GLBBitsUsed(l); occ != want {
									t.Fatalf("%s %v point(%d,%d,%d,%d): occ %d, GLBBitsUsed %d",
										l.Name, sp, ic, im, ip, iq, occ, want)
								}
								if occ > req.GLBBits {
									continue
								}
								lb := g.pointLB(wb, req.EffectiveBytesPerCycle, minTraffic, wE, iE, oE, ic, im, ip, iq)
								an := g.m.Analyze(l)
								want := model.SchedulingCyclesFor(an.Compute, an.MinOffchipElems*wb, req.EffectiveBytesPerCycle)
								if want < minTraffic {
									want = minTraffic
								}
								if lb != want {
									t.Fatalf("%s %v point(%d,%d,%d,%d): lb %d, Analyze-based %d",
										l.Name, sp, ic, im, ip, iq, lb, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestGuidedCancelledBeforeStart: a pre-cancelled guided search must return
// the wrapped context error without touching any lattice — zero tilings
// evaluated, pruned or skipped.
func TestGuidedCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := workload.AlexNet().Layer(0)
	var work obs.Tally
	req := guidedRequest(baseRequest(l), 0, false)
	req.Observe = &work
	out, err := SearchCtx(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), l.Name) {
		t.Errorf("error does not name the layer: %v", err)
	}
	if out != nil {
		t.Errorf("cancelled search returned %d candidates", len(out))
	}
	if s := work.Counts(); s.Evaluated != 0 || s.Pruned != 0 || s.Skipped != 0 {
		t.Errorf("pre-cancelled search did work: %+v", s)
	}
}

// errAfterCtx is a context whose Err() starts failing at the n-th poll,
// giving tests deterministic control over which cancellation checkpoint
// fires.
type errAfterCtx struct {
	context.Context
	polls, fail int
}

func (c *errAfterCtx) Err() error {
	c.polls++
	if c.polls >= c.fail {
		return context.Canceled
	}
	return nil
}

// TestGuidedCancelMidRunBounded: between any two consecutive cancellation
// polls the guided search evaluates at most evalChunk tilings, so the work
// done after a mid-run cancel is bounded by the chunk size — with the
// cancellation firing at poll n, at most (n-1) inter-poll windows ran.
func TestGuidedCancelMidRunBounded(t *testing.T) {
	l := workload.AlexNet().Layer(2)
	req := guidedRequest(baseRequest(l), 0, false)
	for _, fail := range []int{1, 2, 5, 20, 100} {
		var work obs.Tally
		req.Observe = &work
		ctx := &errAfterCtx{Context: context.Background(), fail: fail}
		_, err := SearchCtx(ctx, req)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fail=%d: err = %v, want context.Canceled", fail, err)
		}
		s := work.Counts()
		if max := int64(fail) * evalChunk; s.Evaluated > max {
			t.Errorf("fail=%d: %d tilings evaluated after cancellation, chunk bound allows %d",
				fail, s.Evaluated, max)
		}
	}
}

// eventRecorder collects MapperSearch events (single-goroutine tests).
type eventRecorder struct {
	obs.Nop
	events []obs.MapperSearchEvent
}

func (r *eventRecorder) MapperSearch(e obs.MapperSearchEvent) {
	r.events = append(r.events, e)
}

// TestGuidedObserverEvent: one search emits one MapperSearch event naming
// its layer, and a Tally folds exactly that event's accounting.
func TestGuidedObserverEvent(t *testing.T) {
	l := workload.AlexNet().Layer(1)
	rec := &eventRecorder{}
	var work obs.Tally
	req := guidedRequest(baseRequest(l), 0, false)
	req.Observe = obs.Multi(rec, &work)
	if _, err := SearchCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 1 {
		t.Fatalf("observer saw %d MapperSearch events, want 1", len(rec.events))
	}
	e := rec.events[0]
	s := work.Counts()
	if e.Layer != l.Name {
		t.Errorf("event layer %q, want %q", e.Layer, l.Name)
	}
	if s.MapperSearches != 1 || e.Evaluated != s.Evaluated || e.Pruned != s.Pruned || e.Skipped != s.Skipped {
		t.Errorf("event %+v disagrees with the tally %+v", e, s)
	}
	if e.Evaluated == 0 {
		t.Error("guided search evaluated no tilings")
	}
	if e.Pruned == 0 && e.Skipped == 0 {
		t.Error("guided search pruned nothing — bound-driven search not engaged")
	}
}
