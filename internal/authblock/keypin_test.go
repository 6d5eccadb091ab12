package authblock

import (
	"encoding/hex"
	"testing"
)

// TestStoreKeyPinned pins the bytes of the optimal-assignment store key for
// one fixed request. A change to the encoding orphans every record an
// existing store holds, so the expected digest only ever changes together
// with store.Version.
func TestStoreKeyPinned(t *testing.T) {
	k := cacheKey{
		p: ProducerGrid{C: 64, H: 30, W: 28, TileC: 16, TileH: 6, TileW: 7, WritesPerTile: 2},
		c: ConsumerGrid{TileC: 8, WinH: 5, WinW: 9, StepH: 3, StepW: 4, OffH: -1, OffW: -2,
			CountC: 8, CountH: 10, CountW: 7, FetchesPerTile: 3},
		par: Params{WordBits: 16, HashBits: 64},
	}
	const want = "8106a1c2b7a7641011c740d261c68f020cc355523ed57f0b5e830cfdf9bea98f"
	if got := persistOptimalKey(k); hex.EncodeToString(got[:]) != want {
		t.Fatalf("authblock.optimal key = %x, want %s", got, want)
	}
}
