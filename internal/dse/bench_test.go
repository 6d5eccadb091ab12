package dse

import (
	"context"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/workload"
)

// benchSpace is a 3-spec x 2-crypto slice of the Figure 16 design space,
// large enough to exercise the sweep scheduling but small enough to iterate.
func benchSpace() ([]arch.Spec, []cryptoengine.Config) {
	specs := []arch.Spec{
		arch.Base(),
		arch.Base().WithGlobalBuffer(32 * 1024),
		arch.Base().WithPEs(28, 24),
	}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
	}
	return specs, cryptos
}

// BenchmarkSweepParallel measures the design-space sweep over a slice of the
// Figure 16 space with the full Crypt-Opt-Cross scheduler per point.
func BenchmarkSweepParallel(b *testing.B) {
	net := workload.AlexNet()
	specs, cryptos := benchSpace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptCross, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) != len(specs)*len(cryptos) {
			b.Fatalf("%d points", len(res.Points))
		}
	}
}
