package dse

import (
	"context"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// resetInMemoryCaches drops every process-wide memo, so a subsequent run can
// be answered only by recomputation or the persistent store — the moral
// equivalent of starting a fresh process against the same store directory.
func resetInMemoryCaches() {
	mapper.ResetCaches()
	authblock.ResetCaches()
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func closeStore(t *testing.T, st *store.Store) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// runStoreSweep runs a serial guided sweep against the given store and
// returns its points and the searches it ran.
func runStoreSweep(t *testing.T, net *workload.Network, specs []arch.Spec, cryptos []cryptoengine.Config, st *store.Store, iters int) ([]DesignPoint, obs.Counts) {
	t.Helper()
	var work obs.Tally
	res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, Options{
		AnnealIterations: iters,
		Observe:          &work,
		Mapper:           mapper.Options{Mode: mapper.Guided},
		MaxParallel:      1,
		Store:            st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Points, work.Counts()
}

// TestSweepStoreWarmEquivalence is the acceptance test of the persistent
// tier: across a workload x architecture x crypto matrix, a warm sweep
// reading the store a cold sweep wrote — with every in-memory cache dropped
// in between — returns byte-identical design points while hitting the store.
func TestSweepStoreWarmEquivalence(t *testing.T) {
	specs, cryptos := warmSweepSpace()
	for _, net := range []*workload.Network{workload.AlexNet(), workload.ResNet18()} {
		t.Run(net.Name, func(t *testing.T) {
			sp, cr := specs, cryptos
			if net.NumLayers() > 10 {
				// The deeper network pins cross-workload coverage; one design
				// point keeps the matrix fast.
				sp, cr = sp[:1], cr[:1]
			}
			dir := t.TempDir()
			resetInMemoryCaches()
			cold := openStore(t, dir)
			coldPts, _ := runStoreSweep(t, net, sp, cr, cold, 40)
			closeStore(t, cold)

			resetInMemoryCaches()
			warm := openStore(t, dir)
			warmPts, _ := runStoreSweep(t, net, sp, cr, warm, 40)
			hits := warm.Stats().Hits
			closeStore(t, warm)
			resetInMemoryCaches()

			if hits == 0 {
				t.Error("warm sweep never hit the persistent store")
			}
			if len(warmPts) != len(coldPts) {
				t.Fatalf("point counts differ: warm %d, cold %d", len(warmPts), len(coldPts))
			}
			for i := range warmPts {
				// DesignPoint is comparable; == is full byte identity.
				if warmPts[i] != coldPts[i] {
					t.Errorf("point %s: warm %+v != cold %+v", coldPts[i].Label(), warmPts[i], coldPts[i])
				}
			}
		})
	}
}

// TestSweepStoreWarmFewerEvals pins the work-avoidance claim: a warm sweep
// answered by the per-layer store tiers performs at least 10x fewer mapper
// tiling evaluations and AuthBlock optimal searches than the cold sweep that
// populated the store. The warm sweep uses a different annealing iteration
// count so the whole-network tier misses and the mapper and AuthBlock tiers
// must answer — exercising the layered fallback, not just the top tier.
func TestSweepStoreWarmFewerEvals(t *testing.T) {
	specs, cryptos := warmSweepSpace()
	dir := t.TempDir()
	net := workload.AlexNet()

	resetInMemoryCaches()
	cold := openStore(t, dir)
	_, coldWork := runStoreSweep(t, net, specs, cryptos, cold, 40)
	coldEvals, coldRuns := coldWork.Evaluated, coldWork.AuthBlockSearches
	closeStore(t, cold)
	if coldEvals == 0 || coldRuns == 0 {
		t.Fatalf("cold sweep did no work (evaluated %d, optimal runs %d)", coldEvals, coldRuns)
	}

	resetInMemoryCaches()
	warm := openStore(t, dir)
	_, warmWork := runStoreSweep(t, net, specs, cryptos, warm, 50)
	warmEvals, warmRuns := warmWork.Evaluated, warmWork.AuthBlockSearches
	closeStore(t, warm)
	resetInMemoryCaches()

	if warmEvals*10 > coldEvals {
		t.Errorf("warm sweep evaluated %d tilings, cold %d — want >= 10x fewer", warmEvals, coldEvals)
	}
	if warmRuns*10 > coldRuns {
		t.Errorf("warm sweep ran %d optimal searches, cold %d — want >= 10x fewer", warmRuns, coldRuns)
	}
	t.Logf("evaluations: cold %d, warm %d; optimal runs: cold %d, warm %d",
		coldEvals, warmEvals, coldRuns, warmRuns)
}

// BenchmarkSweepStoreCold is the cold baseline for BenchmarkSweepStoreWarm:
// the identical sweep against a fresh, empty store each iteration with all
// in-memory caches dropped, so every schedule is computed from scratch and
// written to the store. BENCH_PR7.json records the warm sweep's speedup over
// this number.
func BenchmarkSweepStoreCold(b *testing.B) {
	net := workload.AlexNet()
	specs, cryptos := warmSweepSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetInMemoryCaches()
		st, err := store.Open(b.TempDir(), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, Options{
			AnnealIterations: 40,
			Mapper:           mapper.Options{Mode: mapper.Guided},
			MaxParallel:      1,
			Store:            st,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	resetInMemoryCaches()
}

// BenchmarkSweepStoreWarm measures a warm sweep: every schedule is answered
// by the store written during setup, with all in-memory caches dropped
// before each iteration so the disk tier does the work. The cold-evals and
// warm-evals/op metrics count mapper tiling evaluations plus AuthBlock
// optimal searches; BENCH_PR7.json records the eval-reduction ratio they
// give.
func BenchmarkSweepStoreWarm(b *testing.B) {
	dir := b.TempDir()
	net := workload.AlexNet()
	specs, cryptos := warmSweepSpace()
	run := func(st *store.Store) int64 {
		var work obs.Tally
		_, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, Options{
			AnnealIterations: 40,
			Observe:          &work,
			Mapper:           mapper.Options{Mode: mapper.Guided},
			MaxParallel:      1,
			Store:            st,
		})
		if err != nil {
			b.Fatal(err)
		}
		c := work.Counts()
		return c.Evaluated + c.AuthBlockSearches
	}

	resetInMemoryCaches()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if cerr := st.Close(); cerr != nil {
			b.Fatal(cerr)
		}
	}()
	coldEvals := run(st)

	var warmEvals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetInMemoryCaches()
		b.StartTimer()
		warmEvals += run(st)
	}
	b.StopTimer()
	b.ReportMetric(float64(coldEvals), "cold-evals")
	b.ReportMetric(float64(warmEvals)/float64(b.N), "warm-evals/op")
	resetInMemoryCaches()
}
