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
// (the warm-start key deliberately ignores buffer capacity, so every layer
// shape recurs at each design point) under two crypto bandwidths.
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

// runGuidedSweep runs the miniature sweep serially from fully reset mapper
// state and snapshots the guided-search work counters.
func runGuidedSweep(t *testing.T, warm bool) ([]DesignPoint, mapper.GuidedStats, memo.Stats) {
	t.Helper()
	mapper.ResetCaches()
	specs, cryptos := warmSweepSpace()
	res, err := Sweep(context.Background(), workload.AlexNet(), specs, cryptos,
		core.CryptOptSingle, Options{
			Mapper:      mapper.Options{Mode: mapper.Guided, DisableWarmStart: !warm},
			MaxParallel: 1,
		})
	if err != nil {
		t.Fatal(err)
	}
	_, _, warmStats := mapper.CacheStats()
	return res.Points, mapper.GuidedSearchStats(), warmStats
}

// TestSweepGuidedWarmStart is the acceptance test of the warm-start layer:
// on a serial sweep whose design points share layer shapes, the
// warm-started run must (a) hit the store, (b) evaluate measurably fewer
// tilings than the cold run — the seeds tighten the top-k threshold before
// scanning, so the bound prunes and skips more — and (c) return design
// points identical to the cold run (at Epsilon = 0 seeding provably cannot
// change the result).
func TestSweepGuidedWarmStart(t *testing.T) {
	coldPts, cold, _ := runGuidedSweep(t, false)
	warmPts, warm, warmStats := runGuidedSweep(t, true)
	defer mapper.ResetCaches()

	if warmStats.Hits == 0 {
		t.Error("warm-started sweep never hit the warm store")
	}
	if warm.WarmSeeds == 0 {
		t.Error("warm-started sweep applied no seeds")
	}
	if warm.Searches != cold.Searches {
		t.Errorf("search counts differ: warm %d, cold %d", warm.Searches, cold.Searches)
	}
	if warm.Evaluated >= cold.Evaluated {
		t.Errorf("warm sweep evaluated %d tilings, cold evaluated %d — warm starts saved nothing",
			warm.Evaluated, cold.Evaluated)
	}
	t.Logf("evaluated: cold %d, warm %d (%.1f%% saved); warm pruned %d, skipped %d, seeds %d, store hits %d",
		cold.Evaluated, warm.Evaluated,
		100*float64(cold.Evaluated-warm.Evaluated)/float64(cold.Evaluated),
		warm.Pruned, warm.Skipped, warm.WarmSeeds, warmStats.Hits)

	if len(warmPts) != len(coldPts) {
		t.Fatalf("point counts differ: warm %d, cold %d", len(warmPts), len(coldPts))
	}
	for i := range warmPts {
		w, c := warmPts[i], coldPts[i]
		if w.Cycles != c.Cycles || w.EnergyPJ != c.EnergyPJ || w.UnsecureCycles != c.UnsecureCycles {
			t.Errorf("point %s: warm (%d cyc, %g pJ, %d base) != cold (%d cyc, %g pJ, %d base)",
				w.Label(), w.Cycles, w.EnergyPJ, w.UnsecureCycles, c.Cycles, c.EnergyPJ, c.UnsecureCycles)
		}
	}
}

// TestSweepGuidedMatchesExhaustive pins the end-to-end contract the flag
// exposes: a guided sweep's design points are identical to the exhaustive
// sweep's.
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
