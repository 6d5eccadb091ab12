package mapper

import (
	"encoding/hex"
	"testing"

	"secureloop/internal/workload"
)

// TestStoreKeyPinned pins the bytes of the mapper search store key for one
// fixed request. A change to the encoding orphans every record an existing
// store holds, so the expected digest only ever changes together with
// store.Version.
func TestStoreKeyPinned(t *testing.T) {
	k := cacheKey{
		layer: workload.Layer{C: 3, M: 5, R: 7, S: 11, P: 13, Q: 17,
			StrideH: 2, StrideW: 3, PadH: 1, PadW: 4, N: 1, Depthwise: true, WordBits: 16},
		pesX: 14, pesY: 12, glb: 1 << 18, rf: 4096, effBW: 30.0 / 7, topK: 6,
		opt: Options{Mode: Guided, Epsilon: 0.125, DisableWarmStart: true},
	}
	const want = "477e0668b60cb39b4b4f102b56e7eab810659f08833d2f40462675a6aa3d0be3"
	if got := persistSearchKey(k); hex.EncodeToString(got[:]) != want {
		t.Fatalf("mapper.search key = %x, want %s", got, want)
	}
}
