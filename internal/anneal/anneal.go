// Package anneal implements the paper's third scheduling step (Section 4.3,
// Algorithm 1): simulated annealing over the per-layer top-k loopnest
// schedules. The state is one schedule choice per layer; a neighbour
// replaces one randomly chosen layer's schedule with another of its top-k
// candidates; acceptance is probabilistic under a linearly decaying
// temperature, so diverse states are explored early and the best ones
// exploited late.
package anneal

import (
	"context"
	"math"
	"math/rand"

	"secureloop/internal/obs"
)

// Problem is a discrete per-layer choice space with a global cost.
type Problem interface {
	// NumLayers returns the number of layers (state components).
	NumLayers() int
	// NumChoices returns the candidate count of layer i (>= 1).
	NumChoices(i int) int
	// Cost evaluates the full-network cost of a choice vector. Lower is
	// better. Implementations should memoise: the same pairs recur.
	Cost(choices []int) float64
}

// Incremental is an optional Problem extension for states whose cost
// responds locally to a single-component move (a layer's schedule change
// touches only that layer and its segment neighbours). When a Problem
// implements it, MinimizeCtx evaluates each proposed move through DeltaCost
// instead of a full Cost recomputation, turning the per-iteration cost from
// O(segment) layer evaluations into O(1).
type Incremental interface {
	Problem
	// DeltaCost returns the cost of the state obtained from choices by
	// setting component i to next. It must not mutate choices and must
	// return exactly the value Cost would return on the modified vector, so
	// the annealing trajectory is identical with or without the fast path.
	DeltaCost(choices []int, i, next int) float64
}

// Options tunes the search.
type Options struct {
	// Iterations is the annealing step count (the paper defaults to 1000).
	Iterations int
	// TInit and TFinal bound the linearly decaying temperature, expressed
	// relative to the initial cost (the cost is normalised internally, so
	// these are dimensionless).
	TInit, TFinal float64
	// Seed drives the random source; equal seeds reproduce runs exactly.
	Seed int64
}

// DefaultOptions returns the paper's defaults: 1000 iterations.
func DefaultOptions() Options {
	return Options{Iterations: 1000, TInit: 0.05, TFinal: 1e-4, Seed: 1}
}

// Result reports the annealing outcome.
type Result struct {
	// Choices is the best state found (not merely the final state).
	Choices []int
	// Cost is its cost.
	Cost float64
	// InitialCost is the cost of the all-top-1 starting state.
	InitialCost float64
	// Accepted counts accepted moves.
	Accepted int
}

// moveChunk is the cancellation/progress granularity of the move loop: the
// context is polled and progress emitted once per chunk of moves, never per
// move, so the steady-state iteration stays free of interface calls and
// allocations.
const moveChunk = 64

// MinimizeCtx runs Algorithm 1: starting from the all-top-1 state, it
// repeatedly perturbs one layer's choice and probabilistically accepts the
// move. It returns the best state observed. The context is polled at
// move-chunk boundaries; on cancellation the best state found so far is
// returned together with ctx.Err(), so callers can either abort or keep the
// partial result.
//
// ob (nil: none) receives EventAnneal progress labelled with tag (the
// scheduler passes the segment's first layer index). Emission happens at
// move-chunk boundaries, outside the random trajectory, so observed and
// unobserved runs are bitwise identical.
func MinimizeCtx(ctx context.Context, p Problem, opts Options, ob obs.Observer, tag int) (Result, error) {
	n := p.NumLayers()
	ob = obs.OrNop(ob)
	if err := ctx.Err(); err != nil {
		// Pre-cancelled: do no work, not even the initial evaluation.
		return Result{}, err
	}
	cur := make([]int, n)
	curCost := p.Cost(cur)
	res := Result{
		Choices:     append([]int(nil), cur...),
		Cost:        curCost,
		InitialCost: curCost,
	}
	if n == 0 || opts.Iterations <= 0 {
		return res, nil
	}
	// Layers with a single candidate cannot move; if none can, we are done.
	// Choice counts are hoisted so the move loop never calls back through
	// the interface.
	movable := make([]int, 0, n)
	numChoices := make([]int, n)
	for i := 0; i < n; i++ {
		numChoices[i] = p.NumChoices(i)
		if numChoices[i] > 1 {
			movable = append(movable, i)
		}
	}
	if len(movable) == 0 {
		return res, nil
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	norm := curCost
	if norm <= 0 {
		norm = 1
	}
	inc, incremental := p.(Incremental)

	for it := 0; it < opts.Iterations; it++ {
		// Cancellation and progress at chunk boundaries only: the check sits
		// outside the random trajectory (no rng draw, no state change), so a
		// run that is never cancelled is bitwise identical to the ctx-less
		// path, and the per-move cost stays allocation-free.
		if it%moveChunk == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			ob.Observe(obs.Event{Kind: obs.EventAnneal, Anneal: &obs.AnnealEvent{
				Tag:        tag,
				Iteration:  it,
				Iterations: opts.Iterations,
				Accepted:   res.Accepted,
				Best:       res.Cost,
			}})
		}

		// Linear temperature decay (Algorithm 1 line 13).
		frac := float64(it) / float64(opts.Iterations)
		t := opts.TInit + (opts.TFinal-opts.TInit)*frac

		// Sample a layer and one of its NumChoices(i)-1 *other* candidates,
		// so every iteration proposes a real move (sampling the current
		// choice would burn the iteration as a no-op).
		i := movable[rng.Intn(len(movable))]
		next := rng.Intn(numChoices[i] - 1)
		if next >= cur[i] {
			next++
		}

		var nextCost float64
		if incremental {
			nextCost = inc.DeltaCost(cur, i, next)
		} else {
			old := cur[i]
			cur[i] = next
			nextCost = p.Cost(cur)
			cur[i] = old
		}

		// Probabilistic acceptance (Algorithm 1 lines 8-12): improvements
		// always accepted, regressions with probability exp(diff/t). The
		// draw happens unconditionally so the random trajectory is identical
		// whether or not the improvement fast path skips the exponential
		// (exp(diff/t) >= 1 > draw whenever diff >= 0).
		diff := (curCost - nextCost) / norm
		draw := rng.Float64()
		if diff >= 0 || math.Exp(diff/t) > draw {
			cur[i] = next
			curCost = nextCost
			res.Accepted++
			if nextCost < res.Cost {
				res.Cost = nextCost
				copy(res.Choices, cur)
			}
		}
	}
	ob.Observe(obs.Event{Kind: obs.EventAnneal, Anneal: &obs.AnnealEvent{
		Tag:        tag,
		Iteration:  opts.Iterations,
		Iterations: opts.Iterations,
		Accepted:   res.Accepted,
		Best:       res.Cost,
	}})
	return res, nil
}
