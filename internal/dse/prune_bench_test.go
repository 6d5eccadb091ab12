package dse

import (
	"context"
	"testing"

	"secureloop/internal/core"
	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

// pruneBenchOpts are the shared settings of the pruned-vs-unpruned cold
// sweep pair: serial and guided, so the two benchmarks differ only in the
// coordinator's dominance pruning.
func pruneBenchOpts() Options {
	return Options{
		AnnealIterations: 40,
		Mapper:           mapper.Options{Mode: mapper.Guided},
		MaxParallel:      1,
	}
}

// BenchmarkSweepColdUnpruned is the baseline: a cold sweep (all in-memory
// caches dropped per iteration) that fully evaluates every design point of
// the prune-friendly space.
func BenchmarkSweepColdUnpruned(b *testing.B) {
	net := workload.AlexNet()
	specs, cryptos := pruneSweepSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetInMemoryCaches()
		b.StartTimer()
		res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, pruneBenchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(specs)*len(cryptos) {
			b.Fatalf("%d points", len(res.Points))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(specs)*len(cryptos)), "full-evals/op")
	b.ReportMetric(0, "pruned/op")
	resetInMemoryCaches()
}

// BenchmarkSweepColdPruned is the same cold sweep through the dominance-
// pruned coordinator: the bound pre-pass plus the streaming front skip the
// design points that cannot reach the Pareto front, so both wall time and
// full evaluations drop against BenchmarkSweepColdUnpruned while the
// returned front stays byte-identical (pinned by
// TestCoordinatorFrontMatchesUnpruned).
func BenchmarkSweepColdPruned(b *testing.B) {
	net := workload.AlexNet()
	specs, cryptos := pruneSweepSpace()
	var evals, pruned int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetInMemoryCaches()
		b.StartTimer()
		opt := pruneBenchOpts()
		opt.Prune = true
		res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, opt)
		if err != nil {
			b.Fatal(err)
		}
		evals += int64(res.Stats.FullEvals)
		pruned += int64(res.Stats.Pruned)
	}
	b.StopTimer()
	b.ReportMetric(float64(evals)/float64(b.N), "full-evals/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
	resetInMemoryCaches()
}

// BenchmarkSweepBoundsPrepass isolates the coordinator's pre-pass: the
// per-point exact area and cycle lower bound over the same space, nothing
// else. Its ns/op is what every pruned sweep pays before any pruning can
// happen, the first time a process meets the space; BENCH_PR9.json records
// it as a small fraction of the cold sweep. The memos are dropped before
// each iteration, so it never times bound memo hits.
func BenchmarkSweepBoundsPrepass(b *testing.B) {
	net := workload.AlexNet()
	specs, cryptos := pruneSweepSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetInMemoryCaches()
		b.StartTimer()
		c := &coordinator{
			net: net, specs: specs, cryptos: cryptos, alg: core.CryptOptSingle,
			opt:  Options{Prune: true},
			jobs: make([]pointJob, len(specs)*len(cryptos)),
		}
		if err := c.computeBounds(context.Background()); err != nil {
			b.Fatal(err)
		}
		for _, j := range c.jobs {
			if j.Bound.AreaMM2 <= 0 {
				b.Fatal("missing bound")
			}
		}
	}
	b.StopTimer()
	resetInMemoryCaches()
}
