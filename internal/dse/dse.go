// Package dse drives the design-space exploration of Section 5.2-5.3:
// sweeps over cryptographic-engine configurations, PE-array shapes and
// global-buffer sizes, evaluation of each design point with the SecureLoop
// scheduler, and Pareto-front extraction for the area-vs-performance
// trade-off of Figure 16.
package dse

import (
	"context"
	"fmt"

	"secureloop/internal/accelergy"
	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// DesignPoint is one evaluated secure-accelerator design.
type DesignPoint struct {
	// Spec and Crypto identify the design.
	Spec   arch.Spec
	Crypto cryptoengine.Config
	// AreaMM2 is the total die area (accelerator + crypto engines).
	AreaMM2 float64
	// CryptoAreaOverheadPct is the Figure 13 gate-relative overhead.
	CryptoAreaOverheadPct float64
	// Cycles and EnergyPJ are the scheduled workload totals.
	Cycles   int64
	EnergyPJ float64
	// UnsecureCycles is the same architecture without crypto engines.
	UnsecureCycles int64
	// Pareto marks membership of the area/latency Pareto front (set by
	// MarkPareto).
	Pareto bool
}

// Slowdown returns cycles over the unsecure baseline's cycles.
func (d DesignPoint) Slowdown() float64 {
	if d.UnsecureCycles == 0 {
		return 0
	}
	return float64(d.Cycles) / float64(d.UnsecureCycles)
}

// Label names the design point compactly.
func (d DesignPoint) Label() string {
	return fmt.Sprintf("pe%dx%d/glb%dkB/%s",
		d.Spec.PEsX, d.Spec.PEsY, d.Spec.GlobalBufferBytes/1024, d.Crypto)
}

// Options tunes a sweep. The zero value uses the scheduler defaults.
type Options struct {
	// AnnealIterations overrides the cross-layer annealing iteration count
	// when positive.
	AnnealIterations int
	// Observe receives sweep-level progress events: one obs.EventLayer per
	// evaluated design point and one obs.EventSweepPoint per point disposed
	// of without a fresh evaluation, under obs.StageSweep (nil means none).
	// Of the per-point and baseline schedulers' events it receives only the
	// work-count kinds (obs.EventMapperSearch, obs.EventAuthBlockSearch), so
	// a Tally sees the sweep's whole search work. Their progress events are
	// dropped: dozens of concurrent runs interleaving their stage events
	// would drown the sweep-level signal.
	Observe obs.Observer
	// Mapper selects the per-layer loopnest search strategy for every design
	// point (zero value: exhaustive). Every point and baseline runs it
	// without the warm-start store (SweepMapper), whatever DisableWarmStart
	// holds: on layers whose stride exceeds the filter extent a guided answer
	// depends on the seeds earlier searches left (DESIGN.md §12), and a
	// sweep's points would pass them to each other in whatever order its
	// workers finish.
	Mapper mapper.Options
	// MaxParallel bounds the sweep's design-point worker pool and, within
	// each point, the scheduler's step-1, pair-matrix and annealing
	// fan-outs (<= 0 means one worker per available CPU at both levels), so
	// a sweep runs at most MaxParallel² search goroutines. The points are
	// identical at any width, in either mapper mode.
	MaxParallel int
	// Store, when non-nil, persists every design point's schedules into the
	// content-addressed result store, so re-running the same sweep — in this
	// process or a later one — replays byte-identical results from disk
	// instead of recomputing the searches.
	Store *store.Store
	// Prune enables dominance pruning: design points whose pre-pass
	// (area, cycle lower bound) is strictly dominated by an already-evaluated
	// point are skipped without a full evaluation, and points are launched
	// best bound first. The returned front is byte-identical to the unpruned
	// sweep's as long as the bound holds (DESIGN.md §14).
	Prune bool
}

// SweepMapper returns the mapper options a sweep's point and baseline
// schedulers run with: opt without the warm-start store, so a guided sweep
// returns the same points at any width and after any earlier searches.
// Exhaustive mode never uses the store; its keys do not change.
func SweepMapper(opt mapper.Options) mapper.Options {
	opt.DisableWarmStart = true
	return opt
}

func newScheduler(spec arch.Spec, crypto cryptoengine.Config, opt Options) *core.Scheduler {
	s := core.New(spec, crypto)
	if opt.AnnealIterations > 0 {
		s.Anneal.Iterations = opt.AnnealIterations
	}
	s.Mapper = SweepMapper(opt.Mapper)
	s.MaxParallel = opt.MaxParallel
	s.Store = opt.Store
	if opt.Observe != nil {
		s.Observe = workCounts{o: opt.Observe}
	}
	return s
}

// workCounts forwards a per-point scheduler's work-count events to the
// sweep's observer and drops its progress events (see Options.Observe).
type workCounts struct{ o obs.Observer }

func (w workCounts) Observe(e obs.Event) {
	if e.Kind == obs.EventMapperSearch || e.Kind == obs.EventAuthBlockSearch {
		w.o.Observe(e)
	}
}

// unsecureCycles schedules the network on one architecture without crypto
// engines. The result does not depend on the crypto config (the Unsecure
// algorithm never reads it); one is still needed to build a valid
// scheduler.
func unsecureCycles(ctx context.Context, net *workload.Network, spec arch.Spec, crypto cryptoengine.Config, opt Options) (int64, error) {
	s := newScheduler(spec, crypto, opt)
	base, err := s.ScheduleNetworkCtx(ctx, net, core.Unsecure)
	if err != nil {
		return 0, err
	}
	return base.Total.Cycles, nil
}

// evaluateWithBaseline schedules the secure design and assembles the design
// point around a precomputed unsecure baseline.
func evaluateWithBaseline(ctx context.Context, net *workload.Network, spec arch.Spec, crypto cryptoengine.Config, alg core.Algorithm, baseCycles int64, opt Options) (DesignPoint, error) {
	s := newScheduler(spec, crypto, opt)
	res, err := s.ScheduleNetworkCtx(ctx, net, alg)
	if err != nil {
		return DesignPoint{}, err
	}
	return DesignPoint{
		Spec:    spec,
		Crypto:  crypto,
		AreaMM2: pointArea(spec, crypto),
		CryptoAreaOverheadPct: accelergy.CryptoAreaOverheadPercent(
			crypto.TotalAreaKGates(), spec.NumPEs()),
		Cycles:         res.Total.Cycles,
		EnergyPJ:       res.Total.EnergyPJ,
		UnsecureCycles: baseCycles,
	}, nil
}

// Figure16Space returns the design space of the paper's final trade-off
// study: PE arrays {14x12, 14x24, 28x24} x GLB {16, 32, 131 kB} x crypto
// engines {pipelined x1, parallel x1, serial x30}.
func Figure16Space(base arch.Spec) ([]arch.Spec, []cryptoengine.Config) {
	var specs []arch.Spec
	for _, pe := range arch.PEConfigs() {
		for _, glb := range arch.BufferConfigs() {
			specs = append(specs, base.WithPEs(pe[0], pe[1]).WithGlobalBuffer(glb))
		}
	}
	cryptos := []cryptoengine.Config{
		{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
		{Engine: cryptoengine.Parallel(), CountPerDatatype: 1},
		{Engine: cryptoengine.Serial(), CountPerDatatype: 30},
	}
	return specs, cryptos
}
