package dse

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// pruneSweepSpace is a space the dominance pruner has traction on: the area
// axis spreads widely (PE and GLB sizes) while the serial x1 crypto config
// is so bandwidth-starved that big-area serial points are provably worse
// than already-evaluated small fast ones.
func pruneSweepSpace() ([]arch.Spec, []cryptoengine.Config) {
	base := arch.Base()
	specs := []arch.Spec{
		base.WithGlobalBuffer(16 * 1024),
		base.WithGlobalBuffer(131 * 1024),
		base.WithPEs(28, 24).WithGlobalBuffer(131 * 1024),
	}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
		{Engine: cryptoengine.Serial(), CountPerDatatype: 1},
	}
	return specs, cryptos
}

// coordOpts are fast, deterministic sweep options shared by the
// coordinator tests.
func coordOpts() Options {
	return Options{
		AnnealIterations: 20,
		Mapper:           mapper.Options{Mode: mapper.Guided},
	}
}

// TestCoordinatorFrontMatchesUnpruned is the pruning acceptance test: the
// pruned sweep must return a Pareto front byte-identical to ParetoFront over
// the full unpruned sweep — and on the prune-friendly space it must
// actually skip work.
func TestCoordinatorFrontMatchesUnpruned(t *testing.T) {
	cases := []struct {
		name      string
		net       *workload.Network
		wantPrune bool
	}{
		{"alexnet", workload.AlexNet(), true},
		{"resnet18", workload.ResNet18(), false}, // pruning is workload-dependent; identity must hold regardless
	}
	specs, cryptos := pruneSweepSpace()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			all, err := Sweep(context.Background(), tc.net, specs, cryptos,
				core.CryptOptSingle, coordOpts())
			if err != nil {
				t.Fatal(err)
			}
			want := ParetoFront(all.Points)

			opt := coordOpts()
			opt.Prune = true
			res, err := Sweep(context.Background(), tc.net, specs, cryptos,
				core.CryptOptSingle, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Front, want) {
				t.Fatalf("pruned front differs from unpruned:\n got %+v\nwant %+v", res.Front, want)
			}
			s := res.Stats
			t.Logf("%s: %d points, %d full evals, %d pruned, %d deferred, %d re-evaluated",
				tc.name, s.Points, s.FullEvals, s.Pruned, s.Deferred, s.Reevaluated)
			if s.Points != len(specs)*len(cryptos) || s.Bounded != s.Points {
				t.Errorf("accounting: %+v", s)
			}
			if s.FullEvals+s.Pruned != s.Points || len(res.Points) != s.FullEvals {
				t.Errorf("evals %d + pruned %d != points %d (returned %d)", s.FullEvals, s.Pruned, s.Points, len(res.Points))
			}
			if tc.wantPrune && s.Pruned == 0 {
				t.Errorf("prune-friendly space pruned nothing")
			}
		})
	}
}

// TestCoordinatorWorkerInvariance: the pruned front is byte-identical
// across worker-pool widths — the pool shapes timing, never results.
func TestCoordinatorWorkerInvariance(t *testing.T) {
	specs, cryptos := pruneSweepSpace()
	net := workload.AlexNet()
	var want SweepResult
	for i, workers := range []int{1, 4, 2} { // 1 is the canonical serial reference
		opt := coordOpts()
		opt.Prune = true
		opt.MaxParallel = workers
		res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Front, want.Front) {
			t.Errorf("workers=%d: front differs from serial reference", workers)
		}
	}
}

// TestRepeatedSweepReusesBounds: a second identical pruned sweep in one
// process returns the same points without computing a layer bound again.
// Its searches are memo hits, so the bound pre-pass would be the only
// caller of the tile-candidate memo: neither the bound memo's misses nor
// the tile memo's lookups move during the second sweep.
func TestRepeatedSweepReusesBounds(t *testing.T) {
	resetInMemoryCaches()
	defer resetInMemoryCaches()
	base := arch.Base()
	specs := []arch.Spec{base.WithGlobalBuffer(16 * 1024), base.WithPEs(28, 24)}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
	}
	net := workload.AlexNet()
	opt := coordOpts()
	opt.Prune = true
	opt.MaxParallel = 1
	first, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, tileBefore, _, boundBefore := mapper.CacheStats()
	second, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, tileAfter, _, boundAfter := mapper.CacheStats()
	if !reflect.DeepEqual(second.Points, first.Points) || !reflect.DeepEqual(second.Front, first.Front) {
		t.Fatal("the repeated sweep returned different points")
	}
	if boundAfter.Misses != boundBefore.Misses || boundAfter.Hits <= boundBefore.Hits {
		t.Errorf("bound memo: %+v before the repeat, %+v after; want hits only", boundBefore, boundAfter)
	}
	if got, want := tileAfter.Hits+tileAfter.Misses, tileBefore.Hits+tileBefore.Misses; got != want {
		t.Errorf("tile memo lookups moved from %d to %d during the repeat", want, got)
	}
}

// TestCoordinatorUnprunedMode: with Prune off the coordinator evaluates
// every point, returns all of them in canonical order exactly as the serial
// oracle does, and marks the reference front.
func TestCoordinatorUnprunedMode(t *testing.T) {
	specs, cryptos := pruneSweepSpace()
	specs = specs[:2]
	net := workload.AlexNet()
	all, err := sweepSerial(net, specs, cryptos, core.CryptOptSingle, coordOpts())
	if err != nil {
		t.Fatal(err)
	}
	MarkPareto(all)
	res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, coordOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, all) {
		t.Fatal("unpruned coordinator points differ from the serial oracle")
	}
	if !reflect.DeepEqual(res.Front, ParetoFront(all)) {
		t.Fatal("unpruned coordinator front differs from reference")
	}
	if res.Stats.FullEvals != len(specs)*len(cryptos) || res.Stats.Pruned != 0 || res.Stats.Bounded != 0 {
		t.Errorf("unpruned accounting: %+v", res.Stats)
	}
}

func TestCoordinatorCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs, cryptos := pruneSweepSpace()
	opt := coordOpts()
	opt.Prune = true
	_, err := Sweep(ctx, workload.AlexNet(), specs, cryptos, core.CryptOptSingle, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !strings.Contains(err.Error(), string(obs.StageSweep)) {
		t.Errorf("error does not name the sweep stage: %v", err)
	}
}

func TestCoordinatorEmptySpace(t *testing.T) {
	res, err := Sweep(context.Background(), workload.AlexNet(), nil, nil, core.CryptOptSingle, Options{Prune: true})
	if err != nil || len(res.Front) != 0 {
		t.Fatalf("empty space: %v %v", res, err)
	}
}

// TestLaunchOrderCanonical pins the dispatch order: best bound first over
// (CycleLB, AreaMM2, Index) when pruning — a pure function of the bounds —
// and canonical index order otherwise.
func TestLaunchOrderCanonical(t *testing.T) {
	mk := func(idx int, area float64, lb int64) pointJob {
		return pointJob{Index: idx, Bound: PointBound{AreaMM2: area, CycleLB: lb}}
	}
	jobs := []pointJob{
		mk(0, 3, 50), mk(1, 1, 10), mk(2, 2, 10), mk(3, 1, 99), mk(4, 1, 10),
	}
	c := &coordinator{opt: Options{Prune: true}, jobs: jobs}
	// Sorted: 1 (lb10,a1), 4 (lb10,a1,idx4), 2 (lb10,a2), 0 (lb50), 3 (lb99).
	if got, want := c.launchOrder(), []int{1, 4, 2, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned launch order %v, want %v", got, want)
	}
	c.opt.Prune = false
	if got, want := c.launchOrder(), []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unpruned launch order %v, want %v", got, want)
	}
}

// TestPruneBoundSound: the pre-pass bound is below the evaluated cycles and
// the pre-pass area is bit-identical to the evaluated area, across the
// sweep matrix — the pair of properties the pruning correctness argument
// needs.
func TestPruneBoundSound(t *testing.T) {
	specs, cryptos := pruneSweepSpace()
	net := workload.AlexNet()
	opt := coordOpts()
	for _, spec := range specs {
		for _, crypto := range cryptos {
			lb := networkCycleLB(net, spec, crypto, core.CryptOptSingle)
			area := pointArea(spec, crypto)
			base, err := unsecureCycles(context.Background(), net, spec, crypto, opt)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := evaluateWithBaseline(context.Background(), net, spec, crypto,
				core.CryptOptSingle, base, opt)
			if err != nil {
				t.Fatal(err)
			}
			if lb > dp.Cycles {
				t.Errorf("%s: bound %d exceeds evaluated cycles %d", dp.Label(), lb, dp.Cycles)
			}
			if area != dp.AreaMM2 {
				t.Errorf("%s: pre-pass area %g != evaluated %g", dp.Label(), area, dp.AreaMM2)
			}
		}
	}
}

// sweepPointRecorder counts coordinator progress events and checks Done
// monotonicity across both event kinds.
type sweepPointRecorder struct {
	mu      sync.Mutex
	maxDone int // guarded by mu
	broke   bool
	skips   map[obs.SweepOutcome]int // guarded by mu
	final   int
}

func (r *sweepPointRecorder) observe(done int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if done < r.maxDone-1 {
		// Concurrent workers may deliver adjacent events out of order; a
		// drop of more than one step means the counter itself regressed.
		r.broke = true
	}
	if done > r.maxDone {
		r.maxDone = done
	}
	r.final = r.maxDone
}

func (r *sweepPointRecorder) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EventLayer:
		r.observe(e.Layer.Done)
	case obs.EventSweepPoint:
		r.observe(e.Sweep.Done)
		r.mu.Lock()
		r.skips[e.Sweep.Outcome]++
		r.mu.Unlock()
	}
}

// TestCoordinatorProgressEvents: every point ends in exactly one terminal
// event, skipped points surface as EventSweepPoint events, and the Done
// counter reaches Total.
func TestCoordinatorProgressEvents(t *testing.T) {
	specs, cryptos := pruneSweepSpace()
	net := workload.AlexNet()
	rec := &sweepPointRecorder{skips: map[obs.SweepOutcome]int{}}
	opt := coordOpts()
	opt.Prune = true
	opt.MaxParallel = 1
	opt.Observe = rec
	res, err := Sweep(context.Background(), net, specs, cryptos, core.CryptOptSingle, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rec.broke {
		t.Error("Done counter regressed")
	}
	if rec.final != res.Stats.Points {
		t.Errorf("final Done %d != Total %d", rec.final, res.Stats.Points)
	}
	if got := rec.skips[obs.SweepPruned]; got != res.Stats.Pruned {
		t.Errorf("pruned events %d != stats %d", got, res.Stats.Pruned)
	}
}
