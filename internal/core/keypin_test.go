package core

import (
	"encoding/hex"
	"testing"

	"secureloop/internal/anneal"
	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

// TestStoreKeyPinned pins the bytes of the network-tier store key for one
// fixed request. A change to the encoding orphans every record an existing
// store holds, so the expected digest only ever changes together with
// store.Version.
func TestStoreKeyPinned(t *testing.T) {
	net := &workload.Network{
		Name: "pin",
		Layers: []workload.Layer{
			{Name: "a", C: 3, M: 8, R: 3, S: 3, P: 16, Q: 16, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16},
			{Name: "b", C: 8, M: 8, R: 1, S: 1, P: 8, Q: 8, StrideH: 2, StrideW: 2, N: 1, Depthwise: true, WordBits: 16},
		},
		Segments: [][]int{{0, 1}},
	}
	s := &Scheduler{
		Spec: arch.Spec{Name: "pin", PEsX: 14, PEsY: 12, GlobalBufferBytes: 131072, RegFileBytesPerPE: 512,
			WordBits: 16, ClockHz: 1e8, DRAM: arch.DRAMTech{Name: "d", BytesPerCycle: 30, EnergyPerBit: 1.5}},
		Crypto: cryptoengine.Config{Engine: cryptoengine.EngineArch{Name: "e",
			AES:    cryptoengine.UnitSpec{Cycles: 11, AreaKGates: 2.5, EnergyPJ: 3.25},
			GFMult: cryptoengine.UnitSpec{Cycles: 7, AreaKGates: 1.75, EnergyPJ: 0.5}}, CountPerDatatype: 3},
		Params:    authblock.Params{WordBits: 16, HashBits: 64},
		TopK:      5,
		Anneal:    anneal.Options{Iterations: 400, TInit: 0.05, TFinal: 1e-4, Seed: 9},
		Objective: MinEDP,
		Mapper:    mapper.Options{Mode: mapper.Guided, Epsilon: 0.25},
	}
	const want = "63a7bf76f42667ad1390fb24068b44b901d4b41e8b8e2b70bacd52e7e9c5f82a"
	if got := s.persistNetworkKey(net, CryptOptCross); hex.EncodeToString(got[:]) != want {
		t.Fatalf("core.network key = %x, want %s", got, want)
	}
}
