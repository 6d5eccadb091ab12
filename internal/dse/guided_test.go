package dse

import (
	"context"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/memo"
	"secureloop/internal/workload"
)

// warmSweepSpace is a miniature Figure 16-style space: the GLB axis varies
// under two crypto bandwidths, so every layer shape recurs at each design
// point and a rerun over a warm store replays every layer.
func warmSweepSpace() ([]arch.Spec, []cryptoengine.Config) {
	base := arch.Base()
	specs := []arch.Spec{
		base.WithGlobalBuffer(16 * 1024),
		base.WithGlobalBuffer(32 * 1024),
		base.WithGlobalBuffer(131 * 1024),
	}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
	}
	return specs, cryptos
}

// TestSweepGuidedMatchesExhaustive pins the end-to-end contract the flag
// exposes: a guided sweep's design points are identical to the exhaustive
// sweep's. The guided sweep neither reads nor writes the warm-start store,
// even when its options leave warm starts on.
func TestSweepGuidedMatchesExhaustive(t *testing.T) {
	mapper.ResetCaches()
	defer mapper.ResetCaches()
	specs, cryptos := warmSweepSpace()
	specs, cryptos = specs[:2], cryptos[:1]
	net := workload.AlexNet()
	exRes, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle,
		Options{MaxParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapper.ResetCaches()
	gdRes, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle,
		Options{Mapper: mapper.Options{Mode: mapper.Guided}, MaxParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, warm, _ := mapper.CacheStats(); warm != (memo.Stats{}) {
		t.Errorf("the guided sweep used the warm-start store: %+v", warm)
	}
	ex, gd := exRes.Points, gdRes.Points
	if len(gd) != len(ex) {
		t.Fatalf("point counts differ: guided %d, exhaustive %d", len(gd), len(ex))
	}
	for i := range gd {
		if gd[i].Cycles != ex[i].Cycles || gd[i].EnergyPJ != ex[i].EnergyPJ {
			t.Errorf("point %s: guided (%d cyc, %g pJ) != exhaustive (%d cyc, %g pJ)",
				gd[i].Label(), gd[i].Cycles, gd[i].EnergyPJ, ex[i].Cycles, ex[i].EnergyPJ)
		}
	}
}
