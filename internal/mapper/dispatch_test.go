package mapper

import (
	"bytes"
	"context"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// SearchCtx dispatches an exhaustive-mode request to the best-first search
// wherever the traffic floor holds and to the lattice walk elsewhere. The
// tests below pin the predicate, the byte identity of the two sides, and
// that the best-first side of exhaustive mode neither touches the
// warm-start store nor reads Epsilon.

// builtinNetworks lists the four built-in networks.
func builtinNetworks() []*workload.Network {
	return append(workload.Networks(), workload.VGG16())
}

// TestFloorHoldsBuiltinLayers: among the built-in networks the traffic
// floor overshoots only on ResNet-18's three 1×1 stride-2 downsamples, so
// they are the only built-in layers exhaustive mode walks the lattice on.
func TestFloorHoldsBuiltinLayers(t *testing.T) {
	overshoot := map[string]bool{
		"ResNet18/layer2.0.downsample": true,
		"ResNet18/layer3.0.downsample": true,
		"ResNet18/layer4.0.downsample": true,
	}
	found := 0
	for _, net := range builtinNetworks() {
		for i := range net.Layers {
			l := &net.Layers[i]
			id := net.Name + "/" + l.Name
			want := !overshoot[id]
			if !want {
				found++
			}
			if got := floorHolds(l); got != want {
				t.Errorf("floorHolds(%s) = %v, want %v", id, got, want)
			}
		}
	}
	if found != len(overshoot) {
		t.Errorf("found %d of the %d downsample layers", found, len(overshoot))
	}
	for _, c := range []struct {
		name             string
		r, s, strH, strW int
		want             bool
	}{
		{"stride equals filter", 3, 3, 3, 3, true},
		{"stride above filter rows", 1, 3, 2, 1, false},
		{"stride above filter columns", 3, 1, 1, 2, false},
	} {
		l := &workload.Layer{R: c.r, S: c.s, StrideH: c.strH, StrideW: c.strW}
		if got := floorHolds(l); got != c.want {
			t.Errorf("%s: floorHolds = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestExhaustiveMatchesLatticeWalk: on every distinct layer shape of the
// built-in networks, an exhaustive-mode SearchCtx returns the bytes the
// lattice walk returns, at the effective bandwidth of a serial×30 crypto
// engine (30/7 B/cycle), where the floor is tightest.
func TestExhaustiveMatchesLatticeWalk(t *testing.T) {
	spec := arch.Base()
	seen := map[workload.Layer]bool{}
	for _, net := range builtinNetworks() {
		for i := range net.Layers {
			l := &net.Layers[i]
			shape := *l
			shape.Name = ""
			if seen[shape] {
				continue
			}
			seen[shape] = true
			req := Request{
				Layer: l,
				PEsX:  spec.PEsX, PEsY: spec.PEsY,
				GLBBits: spec.GlobalBufferBits(), RFBits: spec.RegFileBits(),
				EffectiveBytesPerCycle: 30.0 / 7,
				TopK:                   cacheTopK,
			}
			got := searchUncached(t, req)
			want, err := search(context.Background(), req, searchTilings)
			if err != nil {
				t.Fatal(err)
			}
			name := net.Name + "/" + l.Name
			if !bytes.Equal(encodeCandidates(got), encodeCandidates(want)) {
				t.Errorf("%s: exhaustive-mode answer differs from the lattice walk", name)
				assertSameCandidates(t, name, got, want)
			}
		}
	}
}

// floorHoldingRequest is an exhaustive-mode request on a layer whose
// traffic floor holds, so SearchCtx runs it best-first.
func floorHoldingRequest(t *testing.T) Request {
	t.Helper()
	req := baseRequest(workload.AlexNet().Layer(2))
	if !floorHolds(req.Layer) {
		t.Fatalf("%s: the traffic floor overshoots", req.Layer.Name)
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
	_, _, warmBefore := CacheStats()
	if warmBefore.Entries == 0 {
		t.Fatal("the guided search stored no seeds")
	}
	var work obs.Tally
	req.Observe = &work
	searchUncached(t, req)
	if _, _, warm := CacheStats(); warm != warmBefore {
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
