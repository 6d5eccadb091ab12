package service

import (
	"encoding/hex"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// TestStoreKeyPinned pins the bytes of the three service request keys for
// one fixed request each. The keys name coalescing flights and are never
// written to the store, so a change to the encoding orphans no record; it
// changes which concurrent requests share one computation, so the pins
// change only on purpose.
func TestStoreKeyPinned(t *testing.T) {
	net := &workload.Network{
		Name: "pin",
		Layers: []workload.Layer{
			{Name: "a", C: 3, M: 8, R: 3, S: 3, P: 16, Q: 16, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16},
			{Name: "b", C: 8, M: 8, R: 1, S: 1, P: 8, Q: 8, StrideH: 2, StrideW: 2, N: 1, Depthwise: true, WordBits: 16},
		},
		Segments: [][]int{{0, 1}},
	}
	spec := func(glb int) arch.Spec {
		return arch.Spec{Name: "pin", PEsX: 14, PEsY: 12, GlobalBufferBytes: glb, RegFileBytesPerPE: 512,
			WordBits: 16, ClockHz: 1e8, DRAM: arch.DRAMTech{Name: "d", BytesPerCycle: 30, EnergyPerBit: 1.5}}
	}
	crypto := func(count int) cryptoengine.Config {
		return cryptoengine.Config{Engine: cryptoengine.EngineArch{Name: "e",
			AES:    cryptoengine.UnitSpec{Cycles: 11, AreaKGates: 2.5, EnergyPJ: 3.25},
			GFMult: cryptoengine.UnitSpec{Cycles: 7, AreaKGates: 1.75, EnergyPJ: 0.5}}, CountPerDatatype: count}
	}
	opt := mapper.Options{Mode: mapper.Guided, Epsilon: 0.25, DisableWarmStart: true}
	for _, tc := range []struct {
		name string
		key  store.Key
		want string
	}{
		{"service.schedule", persistScheduleKey(&ScheduleRequest{
			Network: net, Spec: spec(131072), Crypto: crypto(3), Algorithm: core.CryptOptCross,
			Objective: core.MinEDP, TopK: 5, AnnealIterations: 400, Mapper: opt,
		}), "134452f1f9782d7d6ad023d59e44e561dc71093841dfb0f0cdc97982663f22a3"},
		{"service.sweep", persistSweepKey(&SweepRequest{
			Network: net, Specs: []arch.Spec{spec(65536), spec(131072)},
			Cryptos: []cryptoengine.Config{crypto(1), crypto(3)}, Algorithm: core.CryptOptSingle,
			AnnealIterations: 400, Mapper: opt, Front: true,
		}), "6e4588c1ffc92739656968e5976e9b4b76d09e5d87ddd628992f6e92515dea6d"},
		{"service.authblock", persistAuthBlockKey(&AuthBlockRequest{
			Producer: authblock.ProducerGrid{C: 64, H: 30, W: 28, TileC: 16, TileH: 6, TileW: 7, WritesPerTile: 2},
			Consumer: authblock.ConsumerGrid{TileC: 8, WinH: 5, WinW: 9, StepH: 3, StepW: 4, OffH: -1, OffW: -2,
				CountC: 8, CountH: 10, CountW: 7, FetchesPerTile: 3},
			Params:      authblock.Params{WordBits: 16, HashBits: 64},
			Orientation: authblock.AlongC, MaxU: 64,
		}), "16387eb598563da1d88d69212b3e658e30ceff4a41d21d73bcedda3a8ab4ce5f"},
	} {
		if got := hex.EncodeToString(tc.key[:]); got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.name, got, tc.want)
		}
	}
}
