// The sweep coordinator: the only design-space sweep. A cheap pre-pass
// (bounds.go) gives every design point an exact area and, when pruning, a
// cycle lower bound; the coordinator launches the points onto one worker
// pool — best bound first when pruning, canonical order otherwise — while
// maintaining a streaming Pareto front (pareto.go) under a mutex. Before a
// worker pays for the full mapper+authblock+anneal pipeline, it re-checks
// the point's (area, cycle-LB) against the live front and skips points
// whose bound is already strictly dominated — sound because the bound is
// below the true cycles on every layer (DESIGN.md §14), so it can only
// under-prune, never drop a front member. Points whose bound is dominated
// only by a tie are deferred and resolved in a final exact pass against
// the finished front, so the returned front is byte-identical to the
// unpruned sweep's (TestCoordinatorFrontMatchesUnpruned pins this, the
// same way parallel-vs-serial is pinned).

package dse

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/num"
	"secureloop/internal/obs"
	"secureloop/internal/par"
	"secureloop/internal/workload"
)

// jobState is a design point's lifecycle. A job is terminal once evaluated
// or pruned; deferred jobs are resolved (to one or the other) by the exact
// pass.
type jobState uint8

const (
	statePending jobState = iota
	stateEvaluated
	statePruned
	stateDeferred
)

// pointJob is one design point: its canonical index in the specs-major
// sweep order, its (spec, crypto) coordinates, and the pre-pass bound the
// worker re-checks against the live front before paying for a full
// evaluation.
type pointJob struct {
	// Index is the point's position in the canonical specs-major output
	// order (SpecIdx*len(cryptos) + CryptoIdx).
	Index int
	// SpecIdx and CryptoIdx index the sweep's spec and crypto slices.
	SpecIdx, CryptoIdx int
	// Bound is the pre-pass estimate (exact area, cycle lower bound).
	Bound PointBound
}

// PointMemBytes is what Sweep allocates per design point before it
// evaluates any: the job and its bound, the lifecycle state, the result
// slot, the launch-order and error slots, and the point's entry in the
// returned Points. Admission control multiplies it by a request's point
// count.
const PointMemBytes = int64(unsafe.Sizeof(pointJob{}) + unsafe.Sizeof(jobState(0)) +
	2*unsafe.Sizeof(DesignPoint{}) + unsafe.Sizeof(int(0)) + unsafe.Sizeof(error(nil)))

// FrontStats is one Sweep run's work accounting.
type FrontStats struct {
	// Points is the design-point count of the sweep.
	Points int
	// Bounded counts points given a pre-pass cycle lower bound: all of them
	// once a pruned sweep's pre-pass completes, 0 otherwise.
	Bounded int
	// Pruned counts points skipped by dominance without a full evaluation
	// (exact-pass prunes of deferred points included).
	Pruned int
	// Deferred counts points whose bound tied the front and were resolved
	// in the exact pass.
	Deferred int
	// Reevaluated counts deferred points that survived the exact pass and
	// were fully evaluated there.
	Reevaluated int
	// FullEvals counts full scheduler evaluations (Reevaluated included).
	FullEvals int
	// StoreHits counts evaluations the persistent store's network tier
	// answered (cheap replays, reported as "store-hit" skip events).
	StoreHits int
}

// SweepResult is a sweep's outcome.
type SweepResult struct {
	// Points are the evaluated design points in canonical specs-major
	// order, Pareto marked: every point when pruning is off, the points
	// that survived pruning otherwise.
	Points []DesignPoint
	// Front is the Pareto front in ascending area, byte-identical to
	// ParetoFront over the unpruned sweep's points.
	Front []DesignPoint
	// Stats is the run's work accounting. A failed sweep returns no points
	// but still reports the work it did before failing.
	Stats FrontStats
}

// Sweep evaluates the cross product of architectures and crypto configs on
// one workload: bound pre-pass, one worker pool bounded by
// Options.MaxParallel, dominance pruning against the streaming front when
// Options.Prune is set, and the final exact pass. The unsecure baseline of
// each architecture is scheduled once per spec (not once per spec-crypto
// pair — a 3x redundancy in the Figure 16 space). Cancellation stops the
// pre-pass at the next spec and the pool at the next launch; in-flight
// points stop at their stage boundaries, and the error is ctx.Err() wrapped
// with the sweep stage. A pre-cancelled context evaluates no design point.
// Worker bodies are guarded, so a panic evaluating one design fails the
// sweep, not the process.
func Sweep(ctx context.Context, net *workload.Network, specs []arch.Spec, cryptos []cryptoengine.Config, alg core.Algorithm, opt Options) (res SweepResult, err error) {
	defer obs.CapturePanic(&err)
	jobs := num.MulInt(len(specs), len(cryptos))
	if jobs == 0 {
		return SweepResult{}, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return SweepResult{}, sweepErr(cerr)
	}
	c := &coordinator{
		net: net, specs: specs, cryptos: cryptos, alg: alg, opt: opt,
		ob:      obs.OrNop(opt.Observe),
		jobs:    make([]pointJob, jobs),
		state:   make([]jobState, jobs),
		results: make([]DesignPoint, jobs),
		bases:   make([]specBaseline, len(specs)),
	}
	c.ob.Observe(obs.Event{Kind: obs.EventStageStart, Stage: &obs.StageEvent{Stage: obs.StageSweep, Units: jobs}})
	if err := c.computeBounds(ctx); err != nil {
		return SweepResult{Stats: c.frontStats()}, err
	}
	if err := c.run(ctx); err != nil {
		return SweepResult{Stats: c.frontStats()}, err
	}
	points := c.evaluatedPoints()
	MarkPareto(points)
	front := ParetoFront(points)
	c.ob.Observe(obs.Event{Kind: obs.EventStageEnd, Stage: &obs.StageEvent{Stage: obs.StageSweep, Units: jobs}})
	return SweepResult{Points: points, Front: front, Stats: c.frontStats()}, nil
}

// sweepErr wraps a context error with the sweep stage.
func sweepErr(cerr error) error {
	return fmt.Errorf("dse: %s: %w", obs.StageSweep, cerr)
}

// specBaseline memoises one spec's unsecure baseline. Unlike a sync.Once, a
// failure is not latched: the next point of the spec computes the baseline
// again.
type specBaseline struct {
	mu     sync.Mutex
	done   bool  // guarded by mu
	cycles int64 // guarded by mu
}

// coordinator carries one Sweep run's state.
type coordinator struct {
	net     *workload.Network
	specs   []arch.Spec
	cryptos []cryptoengine.Config
	alg     core.Algorithm
	opt     Options
	ob      obs.Observer

	jobs    []pointJob     // canonical specs-major order, bounds filled
	state   []jobState     // per-job lifecycle, indexed like jobs
	results []DesignPoint  // evaluated points only, indexed like jobs
	bases   []specBaseline // per-spec unsecure baselines
	front   frontTracker
	done    atomic.Int64 // terminal dispositions, for monotone progress

	bounded     int // set once the pre-pass completes
	pruned      atomic.Int64
	deferred    atomic.Int64
	reevaluated atomic.Int64
	fullEvals   atomic.Int64
	storeHits   atomic.Int64
}

// computeBounds is the pre-pass: exact area always; the cycle lower bound
// only when pruning is on (it is the only part that costs anything). The
// layer bounds behind it are memoised process-wide by mapper.SearchLowerBound
// per layer shape, PE array, RF size and effective bandwidth, so a sweep's
// crypto axis mostly collapses onto a few distinct bandwidths, its buffer
// axis onto one entry, and a repeated sweep computes none. The context is
// polled once per spec.
func (c *coordinator) computeBounds(ctx context.Context) error {
	for si := range c.specs {
		if cerr := ctx.Err(); cerr != nil {
			return sweepErr(cerr)
		}
		for ci := range c.cryptos {
			idx := num.MulInt(si, len(c.cryptos)) + ci
			b := PointBound{AreaMM2: pointArea(c.specs[si], c.cryptos[ci])}
			if c.opt.Prune {
				b.CycleLB = networkCycleLB(c.net, c.specs[si], c.cryptos[ci], c.alg)
			}
			c.jobs[idx] = pointJob{Index: idx, SpecIdx: si, CryptoIdx: ci, Bound: b}
		}
	}
	if c.opt.Prune {
		c.bounded = len(c.jobs)
	}
	return nil
}

// launchOrder returns the job indices in dispatch order. Pruned sweeps
// launch best bound first — sorted by (CycleLB, AreaMM2, Index) — so the
// front tightens as early as possible; unpruned sweeps launch in canonical
// index order. Either way the order is a pure function of the bounds, so a
// serial sweep visits the points identically on every run.
func (c *coordinator) launchOrder() []int {
	order := make([]int, len(c.jobs))
	for i := range order {
		order[i] = i
	}
	if !c.opt.Prune {
		return order
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := c.jobs[order[a]], c.jobs[order[b]]
		if ja.Bound.CycleLB != jb.Bound.CycleLB {
			return ja.Bound.CycleLB < jb.Bound.CycleLB
		}
		//securelint:ignore floateq lexicographic sort key over stored area values; ties fall through to the index comparison, so the order is total and deterministic
		if ja.Bound.AreaMM2 != jb.Bound.AreaMM2 {
			return ja.Bound.AreaMM2 < jb.Bound.AreaMM2
		}
		return ja.Index < jb.Index
	})
	return order
}

// run launches every job in launch order onto one pool of
// Options.MaxParallel workers, then resolves deferred points in the exact
// pass. The pool stops claiming jobs on cancellation. A failed point does
// not stop the others; the first failure in launch order is reported.
func (c *coordinator) run(ctx context.Context) error {
	order := c.launchOrder()
	err := par.Each(ctx, c.opt.MaxParallel, len(order), func(k int) error {
		return c.evalJob(ctx, c.jobs[order[k]])
	})
	if cerr := ctx.Err(); cerr != nil {
		return sweepErr(cerr)
	}
	if err != nil {
		return err
	}
	return c.exactPass(ctx)
}

// evalJob is one worker's body: re-check the point's bound against the
// live front, then prune, defer, or fully evaluate. Each job runs exactly
// once and only its own worker writes its state, which the coordinator
// reads after the pool drains.
func (c *coordinator) evalJob(ctx context.Context, job pointJob) error {
	if c.opt.Prune {
		switch c.front.check(job.Bound.AreaMM2, job.Bound.CycleLB) {
		case boundPrune:
			c.state[job.Index] = statePruned
			c.pruned.Add(1)
			c.emitSkip(job, obs.SweepPruned, true)
			return nil
		case boundDefer:
			c.state[job.Index] = stateDeferred
			c.deferred.Add(1)
			c.emitSkip(job, obs.SweepDeferred, false)
			return nil
		}
	}
	return c.evaluateJob(ctx, job)
}

// evaluateJob runs the full scheduler pipeline for one point and folds the
// exact result into the streaming front.
func (c *coordinator) evaluateJob(ctx context.Context, job pointJob) error {
	si, ci := job.SpecIdx, job.CryptoIdx
	base, err := c.baseline(ctx, si, ci)
	if err != nil {
		return c.pointErr(job, err)
	}
	storeHit := false
	if c.opt.Store != nil {
		storeHit = newScheduler(c.specs[si], c.cryptos[ci], c.opt).StoredNetwork(c.net, c.alg)
	}
	dp, err := evaluateWithBaseline(ctx, c.net, c.specs[si], c.cryptos[ci], c.alg, base, c.opt)
	if err != nil {
		return c.pointErr(job, err)
	}
	c.results[job.Index] = dp
	c.state[job.Index] = stateEvaluated
	c.front.add(dp.AreaMM2, dp.Cycles)
	c.fullEvals.Add(1)
	if storeHit {
		c.storeHits.Add(1)
		c.ob.Observe(obs.Event{Kind: obs.EventSweepPoint, Sweep: &obs.SweepPointEvent{
			Index: job.Index, Label: dp.Label(), Outcome: obs.SweepStoreHit,
			Done: int(c.done.Add(1)), Total: len(c.jobs),
		}})
		return nil
	}
	c.ob.Observe(obs.Event{Kind: obs.EventLayer, Layer: &obs.LayerEvent{
		Stage: obs.StageSweep,
		Index: job.Index, Name: dp.Label(),
		Done: int(c.done.Add(1)), Total: len(c.jobs),
	}})
	return nil
}

// baseline memoises the unsecure schedule per spec (not per point):
// whichever worker needs it first computes it, the rest wait on the mutex.
func (c *coordinator) baseline(ctx context.Context, si, ci int) (int64, error) {
	b := &c.bases[si]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return b.cycles, nil
	}
	cycles, err := unsecureCycles(ctx, c.net, c.specs[si], c.cryptos[ci], c.opt)
	if err != nil {
		return 0, err
	}
	b.cycles, b.done = cycles, true
	return cycles, nil
}

// exactPass resolves deferred points against the finished front, in
// canonical index order: strictly dominated bounds are pruned for good,
// everything else is evaluated exactly — so a bound tie can never cost a
// front member, only a re-evaluation.
func (c *coordinator) exactPass(ctx context.Context) error {
	for idx := range c.jobs {
		if c.state[idx] != stateDeferred {
			continue
		}
		if cerr := ctx.Err(); cerr != nil {
			return sweepErr(cerr)
		}
		job := c.jobs[idx]
		if c.front.check(job.Bound.AreaMM2, job.Bound.CycleLB) == boundPrune {
			c.state[idx] = statePruned
			c.pruned.Add(1)
			c.emitSkip(job, obs.SweepPruned, true)
			continue
		}
		c.reevaluated.Add(1)
		if err := c.evaluateJob(ctx, job); err != nil {
			return err
		}
	}
	return nil
}

// evaluatedPoints collects the evaluated design points in canonical order —
// the input ParetoFront sorts, so tie order matches the unpruned sweep's.
func (c *coordinator) evaluatedPoints() []DesignPoint {
	var out []DesignPoint
	for idx := range c.jobs {
		if c.state[idx] == stateEvaluated {
			out = append(out, c.results[idx])
		}
	}
	return out
}

// emitSkip reports a point disposed of without a full evaluation. Terminal
// dispositions (prunes) advance the Done counter; deferrals do not — they
// advance it when the exact pass resolves them — so progress stays monotone
// and ends at Total.
func (c *coordinator) emitSkip(job pointJob, outcome obs.SweepOutcome, terminal bool) {
	done := int(c.done.Load())
	if terminal {
		done = int(c.done.Add(1))
	}
	c.ob.Observe(obs.Event{Kind: obs.EventSweepPoint, Sweep: &obs.SweepPointEvent{
		Index: job.Index, Label: c.label(job), Outcome: outcome,
		Done: done, Total: len(c.jobs),
	}})
}

// label names a point without evaluating it (prune/defer events).
func (c *coordinator) label(job pointJob) string {
	return DesignPoint{Spec: c.specs[job.SpecIdx], Crypto: c.cryptos[job.CryptoIdx]}.Label()
}

// pointErr wraps an evaluation failure with the point's identity.
func (c *coordinator) pointErr(job pointJob, err error) error {
	return fmt.Errorf("dse: %s %s: %w", c.specs[job.SpecIdx].Name, c.cryptos[job.CryptoIdx], err)
}

// frontStats snapshots the run's counters.
func (c *coordinator) frontStats() FrontStats {
	return FrontStats{
		Points:      len(c.jobs),
		Bounded:     c.bounded,
		Pruned:      int(c.pruned.Load()),
		Deferred:    int(c.deferred.Load()),
		Reevaluated: int(c.reevaluated.Load()),
		FullEvals:   int(c.fullEvals.Load()),
		StoreHits:   int(c.storeHits.Load()),
	}
}
