package mapper

import (
	"testing"

	"secureloop/internal/workload"
)

// TestOptionsReachBothKeyTiers pins that the guided-search knobs are part of
// the request identity at both cache tiers: two searches differing only in
// Options{Mode, Epsilon} must occupy distinct in-memory cacheKey slots AND
// hash to distinct persistent store keys. If either tier dropped the
// options, an exact search could serve a relaxed search's result (or vice
// versa) across processes — the cross-contamination keydrift exists to
// prevent, asserted here end-to-end on the real key constructors.
func TestOptionsReachBothKeyTiers(t *testing.T) {
	layer := workload.Layer{
		C: 3, M: 8, R: 3, S: 3, P: 16, Q: 16,
		StrideH: 1, StrideW: 1, N: 1, WordBits: 16,
	}
	base := cacheKey{
		layer: layer, pesX: 8, pesY: 8,
		glb: 1 << 20, rf: 4096, effBW: 16, topK: 5,
	}

	variants := []struct {
		name string
		opt  Options
	}{
		{"exhaustive", Options{Mode: Exhaustive}},
		{"guided exact", Options{Mode: Guided}},
		{"guided relaxed", Options{Mode: Guided, Epsilon: 0.05}},
		{"guided looser", Options{Mode: Guided, Epsilon: 0.1}},
	}
	keys := make([]cacheKey, len(variants))
	for i, v := range variants {
		keys[i] = base
		keys[i].opt = v.opt
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Errorf("in-memory cacheKey collision between %q and %q: Options do not reach the cache key",
					variants[i].name, variants[j].name)
			}
			if persistSearchKey(keys[i]) == persistSearchKey(keys[j]) {
				t.Errorf("persistent key collision between %q and %q: Options do not reach persistSearchKey",
					variants[i].name, variants[j].name)
			}
		}
	}

	// Identical options must keep hashing identically, or the store would
	// fragment and every warm sweep would silently go cold.
	dup := base
	dup.opt = Options{Mode: Guided, Epsilon: 0.05}
	if persistSearchKey(keys[2]) != persistSearchKey(dup) {
		t.Error("persistSearchKey is not stable for identical requests")
	}

	// Exhaustive mode ignores Epsilon and warm starts, so they must not
	// split its key.
	loose := base
	loose.opt = Options{Mode: Exhaustive, Epsilon: 0.5, DisableWarmStart: true}
	if persistSearchKey(loose) != persistSearchKey(keys[0]) {
		t.Error("an exhaustive search's ignored Epsilon and DisableWarmStart split its store key")
	}
}
