package mapper

import (
	"bytes"
	"fmt"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// Exhaustive mode runs the best-first search at Epsilon 0, without the
// warm-start store, against the exact traffic floor. The tests below pin
// where that floor differs from guided mode's, that exhaustive answers are
// the exact top-k where it does, and that exhaustive mode neither touches
// the warm-start store nor reads Epsilon.

// builtinNetworks lists the four built-in networks.
func builtinNetworks() []*workload.Network {
	return append(workload.Networks(), workload.VGG16())
}

// downsampleNames are the built-in layers whose stride exceeds the filter
// extent: ResNet-18's three 1×1 stride-2 downsamples.
var downsampleNames = map[string]bool{
	"ResNet18/layer2.0.downsample": true,
	"ResNet18/layer3.0.downsample": true,
	"ResNet18/layer4.0.downsample": true,
}

// TestTrafficFloorBuiltinLayers: the exact traffic floor equals guided
// mode's floor on every built-in layer except the three downsamples, and is
// below it on those three. That is why the two modes prune alike, and agree
// at Epsilon 0, everywhere else.
func TestTrafficFloorBuiltinLayers(t *testing.T) {
	check := func(id string, l *workload.Layer, below bool) {
		t.Helper()
		for _, bw := range []float64{30.0 / 7, 192.0 / 11, 64} {
			req := baseRequest(l)
			req.EffectiveBytesPerCycle = bw
			exact, old := trafficFloor(req), guidedFloor(req)
			if below && exact >= old {
				t.Errorf("%s bw=%g: exact floor %d not below guided floor %d", id, bw, exact, old)
			}
			if !below && exact != old {
				t.Errorf("%s bw=%g: exact floor %d, guided floor %d", id, bw, exact, old)
			}
		}
	}
	found := 0
	for _, net := range builtinNetworks() {
		for i := range net.Layers {
			id := net.Name + "/" + net.Layers[i].Name
			if downsampleNames[id] {
				found++
			}
			check(id, &net.Layers[i], downsampleNames[id])
		}
	}
	if found != len(downsampleNames) {
		t.Errorf("found %d of the %d downsample layers", found, len(downsampleNames))
	}
	for _, c := range []struct {
		name             string
		r, s, strH, strW int
		below            bool
	}{
		{"stride equals filter", 3, 3, 3, 3, false},
		{"stride above filter rows", 1, 3, 2, 1, true},
		{"stride above filter columns", 3, 1, 1, 2, true},
	} {
		check(c.name, &workload.Layer{Name: c.name, C: 8, M: 8, R: c.r, S: c.s, P: 7, Q: 7,
			StrideH: c.strH, StrideW: c.strW, N: 1, WordBits: 16}, c.below)
	}
}

// TestExhaustiveExactOnDownsamples: on the three downsamples, across the
// PE arrays of arch.PEConfigs(), a 16 kB and a 131 kB buffer and the
// effective bandwidths of a serial×30 (30/7 B/cycle) and a parallel×4
// (192/11 B/cycle) crypto engine, an exhaustive-mode search returns the
// bytes of the reference search run with no tiling-independent floor.
func TestExhaustiveExactOnDownsamples(t *testing.T) {
	rn := workload.ResNet18()
	for i := range rn.Layers {
		l := &rn.Layers[i]
		if !downsampleNames[rn.Name+"/"+l.Name] {
			continue
		}
		for _, pe := range arch.PEConfigs() {
			for _, glb := range []int{16 * 1024, 131 * 1024} {
				spec := arch.Base().WithPEs(pe[0], pe[1]).WithGlobalBuffer(glb)
				for _, bw := range []float64{30.0 / 7, 192.0 / 11} {
					req := Request{
						Layer: l,
						PEsX:  spec.PEsX, PEsY: spec.PEsY,
						GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
						EffectiveBytesPerCycle: bw,
						TopK:                   10,
					}
					name := fmt.Sprintf("%s/pe%dx%d/glb%dkB/bw%.2f", l.Name, pe[0], pe[1], glb/1024, bw)
					got := searchUncached(t, req)
					want := searchReferenceFloor(req, 0)
					if !bytes.Equal(encodeCandidates(got), encodeCandidates(want)) {
						t.Errorf("%s: exhaustive-mode answer differs from the floor-free reference", name)
						assertSameCandidates(t, name, got, want)
					}
				}
			}
		}
	}
}

// floorHoldingRequest is an exhaustive-mode request on a layer where both
// modes' traffic floors agree, so a guided search at Epsilon 0 returns the
// exhaustive answer there.
func floorHoldingRequest(t *testing.T) Request {
	t.Helper()
	req := baseRequest(workload.AlexNet().Layer(2))
	if trafficFloor(req) != guidedFloor(req) {
		t.Fatalf("%s: the traffic floors differ", req.Layer.Name)
	}
	return req
}

// TestExhaustiveLeavesWarmStoreAlone: a best-first search in exhaustive
// mode neither reads nor writes the warm-start store, even when it holds
// seeds for the layer, and counts as one best-first search.
func TestExhaustiveLeavesWarmStoreAlone(t *testing.T) {
	ResetCaches()
	req := floorHoldingRequest(t)
	searchUncached(t, guidedRequest(req, 0, true)) // stores seeds for the shape
	_, _, warmBefore, _ := CacheStats()
	if warmBefore.Entries == 0 {
		t.Fatal("the guided search stored no seeds")
	}
	var work obs.Tally
	req.Observe = &work
	searchUncached(t, req)
	if _, _, warm, _ := CacheStats(); warm != warmBefore {
		t.Errorf("exhaustive search touched the warm store: %+v, before %+v", warm, warmBefore)
	}
	g := work.Counts()
	if g.MapperSearches != 1 {
		t.Errorf("best-first searches = %d, want 1", g.MapperSearches)
	}
	if g.WarmSeeds != 0 {
		t.Errorf("exhaustive search applied %d warm seeds", g.WarmSeeds)
	}
}

// TestExhaustiveIgnoresEpsilon: an exhaustive-mode request with a wire
// Epsilon returns the bytes of one without, although the same Epsilon
// changes a guided answer on this layer. The Epsilon request runs first,
// on an empty warm store, so no seed can steer it to the exact answer.
func TestExhaustiveIgnoresEpsilon(t *testing.T) {
	ResetCaches()
	req := floorHoldingRequest(t)
	loose := req
	loose.Opt = Options{Mode: Exhaustive, Epsilon: 0.5}
	got := encodeCandidates(searchUncached(t, loose))
	exact := encodeCandidates(searchUncached(t, req))
	if !bytes.Equal(got, exact) {
		t.Error("Epsilon 0.5 changed an exhaustive-mode answer")
	}
	guided := encodeCandidates(searchUncached(t, guidedRequest(req, 0.5, false)))
	if bytes.Equal(guided, exact) {
		t.Errorf("guided Epsilon 0.5 matches the exact answer on %s; pick a layer where it does not", req.Layer.Name)
	}
}
