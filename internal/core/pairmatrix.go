package core

import (
	"secureloop/internal/authblock"
	"secureloop/internal/num"
	"secureloop/internal/par"
)

// pairEntry couples the AuthBlock costs of one (producer choice, consumer
// choice) combination with the assignment that produced them, so a cache
// hit can never pair costs with a mismatched assignment.
type pairEntry struct {
	ok     bool
	costs  authblock.Costs
	assign authblock.Assignment
}

// pairMatrix is the dense k_a x k_b AuthBlock cost matrix of the tensor one
// layer shares with its in-segment successor, indexed by
// (producerChoice * kb + consumerChoice).
type pairMatrix struct {
	kb      int
	entries []pairEntry
}

// matrixFor returns (allocating if needed) the pair matrix of layer a and
// its in-segment successor b. Callers on concurrent paths must have
// precomputed the matrix first; lazy allocation is for the serial
// single-assignment algorithms.
func (r *run) matrixFor(a, b int) *pairMatrix {
	m := r.pairMats[a]
	if m == nil {
		ka, kb := len(r.candidates[a]), len(r.candidates[b])
		m = &pairMatrix{kb: kb, entries: make([]pairEntry, num.MulInt(ka, kb))}
		r.pairMats[a] = m
	}
	return m
}

// pairCosts returns the AuthBlock costs and assignment of the shared tensor
// between in-segment layers a -> b under choices (ca, cb). During annealing
// every entry is precomputed, so the lookup is two array reads with no
// locking; the compute path only runs on serial callers.
func (r *run) pairCosts(a, b, ca, cb int) (authblock.Costs, authblock.Assignment) {
	m := r.matrixFor(a, b)
	e := &m.entries[ca*m.kb+cb]
	if !e.ok {
		costs, assign, err := r.computePair(a, b, ca, cb)
		if err != nil {
			// Cancelled mid-search: hand back the partial value WITHOUT
			// memoising it. The scheduler's per-layer boundary checks see
			// ctx.Err() and discard the whole run before the value can
			// reach a caller.
			return costs, assign
		}
		e.costs, e.assign = costs, assign
		e.ok = true
	}
	return e.costs, e.assign
}

// computePair evaluates the AuthBlock regime of the tensor between layers
// a -> b under explicit candidate choices, honouring the run's context.
func (r *run) computePair(a, b, ca, cb int) (authblock.Costs, authblock.Assignment, error) {
	la, lb := &r.net.Layers[a], &r.net.Layers[b]
	p := producerGrid(la, r.candidates[a][ca].Mapping)
	c := consumerGrid(lb, r.candidates[b][cb].Mapping)
	switch {
	case r.alg == CryptTileSingle:
		costs, _ := authblock.TileAsAuthBlockCached(p, c, r.s.Params)
		assign := authblock.Assignment{
			Orientation: authblock.AlongQ,
			U:           num.MulInt(num.MulInt(p.TileC, p.TileH), p.TileW),
		}
		return costs, assign, nil
	default:
		res, err := authblock.OptimalStoredCtx(r.ctx, r.ob, r.s.Store, p, c, r.s.Params)
		return res.Costs, res.Assignment, err
	}
}

// precomputePairMatrices fills the dense pair-cost matrices of every
// adjacent layer pair in the given segments, fanning the independent
// optimal-assignment searches across the worker pool. Each job writes one
// distinct matrix slot, and every entry is a pure function of its
// (producer, consumer, choices) tuple, so the result is identical at any
// parallelism. On cancellation the pool stops claiming jobs and the
// unfilled entries stay unmemoised.
func (r *run) precomputePairMatrices(segs [][]int, workers int) error {
	type pairJob struct{ a, b, ca, cb int }
	var jobs []pairJob
	for _, seg := range segs {
		for i := 0; i+1 < len(seg); i++ {
			a, b := seg[i], seg[i+1]
			m := r.matrixFor(a, b)
			for ca := range r.candidates[a] {
				for cb := range r.candidates[b] {
					if !m.entries[ca*m.kb+cb].ok {
						jobs = append(jobs, pairJob{a: a, b: b, ca: ca, cb: cb})
					}
				}
			}
		}
	}
	return par.Each(r.ctx, workers, len(jobs), func(i int) error {
		j := jobs[i]
		m := r.pairMats[j.a]
		e := &m.entries[j.ca*m.kb+j.cb]
		costs, assign, err := r.computePair(j.a, j.b, j.ca, j.cb)
		if err != nil {
			return err
		}
		e.costs, e.assign = costs, assign
		e.ok = true
		return nil
	})
}
