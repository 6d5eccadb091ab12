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
// one fixed request each. The keys address the daemon's persistent store
// and its coalescing, so a change to the encoding orphans every record an
// existing store holds; the expected digests only ever change together
// with store.Version.
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
		}), "3cef88d3089ef96d81db61903ee8d9e94ac7f944eaa13975ffe8bf46be95d1cb"},
		{"service.sweep", persistSweepKey(&SweepRequest{
			Network: net, Specs: []arch.Spec{spec(65536), spec(131072)},
			Cryptos: []cryptoengine.Config{crypto(1), crypto(3)}, Algorithm: core.CryptOptSingle,
			AnnealIterations: 400, Mapper: opt, Front: true,
		}), "fb662d1e5c5604d7eb8f8dea1a75f8f1d72550bac60a3898a00aa548b105c69e"},
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
