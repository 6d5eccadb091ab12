package dse

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

func TestMarkParetoSimple(t *testing.T) {
	pts := []DesignPoint{
		{AreaMM2: 1.0, Cycles: 100}, // dominated by none: smallest area
		{AreaMM2: 2.0, Cycles: 50},  // front
		{AreaMM2: 2.5, Cycles: 60},  // dominated by (2.0, 50)
		{AreaMM2: 3.0, Cycles: 40},  // front
		{AreaMM2: 3.5, Cycles: 40},  // dominated (same cycles, more area)
	}
	MarkPareto(pts)
	want := []bool{true, true, false, true, false}
	for i, w := range want {
		if pts[i].Pareto != w {
			t.Errorf("point %d: pareto = %v, want %v", i, pts[i].Pareto, w)
		}
	}
}

func TestParetoFrontSortedAndMinimal(t *testing.T) {
	pts := []DesignPoint{
		{AreaMM2: 3, Cycles: 10},
		{AreaMM2: 1, Cycles: 30},
		{AreaMM2: 2, Cycles: 20},
		{AreaMM2: 2.5, Cycles: 25}, // dominated
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front size %d", len(front))
	}
	for i := 1; i < len(front); i++ {
		if front[i].AreaMM2 < front[i-1].AreaMM2 {
			t.Error("front not sorted by area")
		}
		if front[i].Cycles >= front[i-1].Cycles {
			t.Error("front cycles not strictly decreasing")
		}
	}
}

func TestSlowdownAndLabel(t *testing.T) {
	p := DesignPoint{
		Spec:           arch.Base(),
		Crypto:         cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 2},
		Cycles:         200,
		UnsecureCycles: 100,
	}
	if p.Slowdown() != 2 {
		t.Errorf("slowdown = %g", p.Slowdown())
	}
	if p.Label() != "pe14x12/glb131kB/parallel x 2" {
		t.Errorf("label = %q", p.Label())
	}
	if (DesignPoint{}).Slowdown() != 0 {
		t.Error("zero-baseline slowdown")
	}
}

func TestFigure16Space(t *testing.T) {
	specs, cryptos := Figure16Space(arch.Base())
	if len(specs) != 9 {
		t.Errorf("%d specs, want 9 (3 PE arrays x 3 buffers)", len(specs))
	}
	if len(cryptos) != 3 {
		t.Errorf("%d crypto configs, want 3", len(cryptos))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate spec name %s", s.Name)
		}
		seen[s.Name] = true
	}
}

// sweepSerial is the reference single-threaded sweep: every point in
// canonical specs-major order, each with its own unsecure baseline. Sweep
// must return exactly its output, Pareto marking aside.
func sweepSerial(net *workload.Network, specs []arch.Spec, cryptos []cryptoengine.Config, alg core.Algorithm, opt Options) ([]DesignPoint, error) {
	ctx := context.Background()
	var out []DesignPoint
	for _, spec := range specs {
		for _, c := range cryptos {
			base, err := unsecureCycles(ctx, net, spec, c, opt)
			if err != nil {
				return nil, fmt.Errorf("dse: %s %s: %w", spec.Name, c, err)
			}
			dp, err := evaluateWithBaseline(ctx, net, spec, c, alg, base, opt)
			if err != nil {
				return nil, fmt.Errorf("dse: %s %s: %w", spec.Name, c, err)
			}
			out = append(out, dp)
		}
	}
	return out, nil
}

// TestEvaluateOnePoint: a one-point sweep yields a plausible design point.
func TestEvaluateOnePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling run")
	}
	net := workload.AlexNet()
	res, err := Sweep(context.Background(), net, []arch.Spec{arch.Base()},
		[]cryptoengine.Config{{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1}},
		core.CryptOptSingle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || !res.Points[0].Pareto {
		t.Fatalf("one-point sweep: %+v", res.Points)
	}
	dp := res.Points[0]
	if dp.AreaMM2 <= 0 || dp.Cycles <= 0 || dp.UnsecureCycles <= 0 {
		t.Errorf("bad design point: %+v", dp)
	}
	if dp.Slowdown() < 1 {
		t.Errorf("secure design faster than unsecure: %g", dp.Slowdown())
	}
	if dp.CryptoAreaOverheadPct < 30 || dp.CryptoAreaOverheadPct > 40 {
		t.Errorf("pipelined overhead %g%%, want ~35%%", dp.CryptoAreaOverheadPct)
	}
}

// TestSweepParallelMatchesSerial: the pooled sweep must return exactly the
// serial cross-product evaluation — same points, same order, including the
// per-spec memoised unsecure baselines (which must not depend on which
// crypto config triggered their computation).
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling runs")
	}
	net := workload.AlexNet()
	specs := []arch.Spec{arch.Base(), arch.Base().WithGlobalBuffer(32 * 1024)}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Serial(), CountPerDatatype: 8},
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
	}
	for _, alg := range []core.Algorithm{core.CryptOptSingle, core.CryptOptCross} {
		parallel, err := Sweep(context.Background(), net, specs, cryptos, alg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := sweepSerial(net, specs, cryptos, alg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		MarkPareto(serial)
		if !reflect.DeepEqual(parallel.Points, serial) {
			t.Errorf("%v: parallel sweep diverged from serial:\nparallel: %+v\nserial:   %+v",
				alg, parallel.Points, serial)
		}
	}
}

// goroutinePeak is an observer that samples runtime.NumGoroutine at every
// event. Work-count events are emitted from inside the scheduler's
// fan-out workers, so the samples see the sweep at its widest.
type goroutinePeak struct{ peak atomic.Int64 }

func (g *goroutinePeak) Observe(obs.Event) {
	n := int64(runtime.NumGoroutine())
	for {
		old := g.peak.Load()
		if n <= old || g.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

// TestSweepWidthBoundsGoroutines: Options.MaxParallel bounds every level of
// a sweep, not only its design-point pool. At width w the sweep runs w
// point workers, each fanning its scheduler's stages out over at most w
// workers, however many CPUs the process may use. A finished fan-out's
// workers can still be exiting when the next stage starts its own, so the
// test allows each point worker 2w inner goroutines: w + 2w² in all.
func TestSweepWidthBoundsGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	net := workload.AlexNet()
	specs := []arch.Spec{arch.Base(), arch.Base().WithGlobalBuffer(32 * 1024)}
	cryptos := []cryptoengine.Config{{Engine: cryptoengine.Parallel(), CountPerDatatype: 1}}
	for _, width := range []int{1, 2} {
		// Cold memos, so every search runs and reports from its worker.
		mapper.ResetCaches()
		authblock.ResetCaches()
		base := int64(runtime.NumGoroutine())
		var g goroutinePeak
		_, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptCross,
			Options{AnnealIterations: 20, MaxParallel: width, Observe: &g})
		if err != nil {
			t.Fatal(err)
		}
		if g.peak.Load() == 0 {
			t.Fatalf("width %d: the observer saw no event", width)
		}
		if extra, limit := g.peak.Load()-base, int64(width+2*width*width); extra > limit {
			t.Errorf("width %d: the sweep ran %d goroutines beyond the test's own, want at most %d", width, extra, limit)
		}
	}
}

func TestSweepEmptySpace(t *testing.T) {
	res, err := Sweep(context.Background(), workload.AlexNet(), nil, nil, core.CryptOptSingle, Options{})
	if err != nil || res.Points != nil || res.Front != nil {
		t.Errorf("empty sweep = (%+v, %v)", res, err)
	}
}

func TestSweepSmallSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling runs")
	}
	net := workload.AlexNet()
	specs := []arch.Spec{arch.Base(), arch.Base().WithGlobalBuffer(32 * 1024)}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
	}
	res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	var onFront int
	for _, p := range points {
		if p.Cycles <= 0 || p.AreaMM2 <= 0 {
			t.Errorf("bad point %+v", p)
		}
		if p.Pareto {
			onFront++
		}
	}
	if onFront == 0 || onFront != len(res.Front) {
		t.Errorf("%d Pareto-marked points, front of %d", onFront, len(res.Front))
	}
	// The pipelined design must be at least as fast as the parallel one on
	// the same architecture.
	if points[0].Cycles < points[1].Cycles {
		t.Error("parallel engine outran pipelined")
	}
}
