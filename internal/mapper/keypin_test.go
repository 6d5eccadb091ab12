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
	const want = "7bbf230ba0d3aa4753356938d0b97bbc041a91217d50a6c0e67defdd9880c137"
	if got := persistSearchKey(k); hex.EncodeToString(got[:]) != want {
		t.Fatalf("mapper.search key = %x, want %s", got, want)
	}
}
