package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"secureloop/internal/anneal"
	"secureloop/internal/authblock"
	"secureloop/internal/mapper"
	"secureloop/internal/model"
	"secureloop/internal/num"
	"secureloop/internal/obs"
	"secureloop/internal/par"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// ScheduleNetwork runs the selected algorithm over the network and returns
// per-layer schedules and totals. It is ScheduleNetworkCtx with a
// background context; results are byte-identical.
func (s *Scheduler) ScheduleNetwork(net *workload.Network, alg Algorithm) (*NetworkResult, error) {
	return s.ScheduleNetworkCtx(context.Background(), net, alg)
}

// ScheduleNetworkCtx runs the selected algorithm over the network,
// honouring the context: every stage polls it at work-item boundaries (per
// layer, per pair-matrix entry, per anneal move chunk), the worker pool
// stops claiming work on cancellation and waits for its in-flight items,
// and the returned error wraps ctx.Err() with the stage reached. No partial result
// escapes a cancelled run, no goroutine outlives the call, and a panic
// anywhere on the search path (the num.MulInt overflow guards, the
// AuthBlock coverage invariants) is recovered at this boundary and surfaced
// as an error.
func (s *Scheduler) ScheduleNetworkCtx(ctx context.Context, net *workload.Network, alg Algorithm) (res *NetworkResult, err error) {
	defer obs.CapturePanic(&err)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	for i := range net.Layers {
		// The loopnest model is batch-1 (all the paper's workloads are
		// inference at N=1); reject larger batches rather than silently
		// under-counting their traffic.
		if net.Layers[i].N != 1 {
			return nil, fmt.Errorf("core: layer %s has batch size %d; only N=1 is modeled",
				net.Layers[i].Name, net.Layers[i].N)
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		// Pre-cancelled: schedule nothing at all.
		return nil, fmt.Errorf("core: %s: %w", obs.StageMapping, cerr)
	}

	// Network-level persistent tier: a whole prior run of this exact request
	// (any process, any machine) answers in one lookup. A record that fails
	// to decode is a miss, never an error. Stage events are not replayed for
	// a stored hit — there are no stages to observe.
	var netKey store.Key
	if s.Store != nil {
		netKey = s.persistNetworkKey(net, alg)
		if raw, ok := s.Store.Get(netKey); ok {
			if hit, derr := decodeNetworkResult(raw, net, alg); derr == nil {
				return hit, nil
			}
		}
	}

	run := newRun(s, net, alg)
	run.ctx = ctx
	run.ob = obs.OrNop(s.Observe)
	ob := run.ob

	// Step 1: crypto-aware loopnest scheduling (top-k per layer). Layers are
	// independent here, so the searches fan out across a bounded worker
	// pool; the mapper cache coalesces concurrent identical shapes onto a
	// single search, so repeated layers cost one search regardless of the
	// schedule the pool happens to pick.
	effBW := EffectiveBandwidth(s.Spec, s.Crypto, alg)
	topK := s.TopK
	if alg != CryptOptCross {
		topK = 1
	}
	ob.Observe(obs.Event{Kind: obs.EventStageStart, Stage: &obs.StageEvent{Stage: obs.StageMapping, Units: net.NumLayers()}})
	if err := run.scheduleLayers(s.MaxParallel, effBW, topK); err != nil {
		return nil, fmt.Errorf("core: %s: %w", obs.StageMapping, err)
	}
	ob.Observe(obs.Event{Kind: obs.EventStageEnd, Stage: &obs.StageEvent{Stage: obs.StageMapping, Units: net.NumLayers()}})

	// Choice vector: index into each layer's candidate list.
	choices := make([]int, net.NumLayers())

	// Steps 2+3: batched AuthBlock assignment and cross-layer fine tuning.
	// The configured iteration count is a *global* budget (the paper's
	// default is 1000 for the whole network); it is divided across the
	// multi-layer segments in proportion to their size, with a floor so
	// small segments still explore.
	if alg == CryptOptCross {
		var tunable int
		var segs [][]int
		for _, seg := range net.Segments {
			if len(seg) >= 2 {
				tunable += len(seg)
				segs = append(segs, seg)
			}
		}
		if len(segs) > 0 {
			// Step 2, batched: every annealing move only ever consults the
			// k x k AuthBlock pair-cost matrices of adjacent layers, so all
			// matrices are computed up front, fanned out across the worker
			// pool (entries are independent searches on disjoint slots).
			ob.Observe(obs.Event{Kind: obs.EventStageStart, Stage: &obs.StageEvent{Stage: obs.StageAuthBlock, Units: len(segs)}})
			if err := run.precomputePairMatrices(segs, s.MaxParallel); err != nil {
				return nil, fmt.Errorf("core: %s: %w", obs.StageAuthBlock, err)
			}
			// Dense per-layer evaluation memos make a move pure array
			// arithmetic; allocated before annealing so concurrent segments
			// only touch disjoint, pre-sized slices.
			run.prepareLayerMemos(segs)
			ob.Observe(obs.Event{Kind: obs.EventStageEnd, Stage: &obs.StageEvent{Stage: obs.StageAuthBlock, Units: len(segs)}})

			// Step 3: independent segments anneal concurrently — their layer
			// sets are disjoint, each problem carries its own scratch, and
			// per-segment results land in disjoint slots of the choice
			// vector, so the outcome is identical at any parallelism.
			ob.Observe(obs.Event{Kind: obs.EventStageStart, Stage: &obs.StageEvent{Stage: obs.StageAnneal, Units: len(segs)}})
			if err := run.annealSegments(segs, tunable, s.MaxParallel, choices); err != nil {
				return nil, fmt.Errorf("core: %s: %w", obs.StageAnneal, err)
			}
			ob.Observe(obs.Event{Kind: obs.EventStageEnd, Stage: &obs.StageEvent{Stage: obs.StageAnneal, Units: len(segs)}})
		}
	}

	// Assemble results. The per-layer boundary check (plus the final one)
	// guarantees a lazily computed pair cost interrupted by cancellation can
	// never flow into a returned result.
	out := &NetworkResult{Network: net, Algorithm: alg}
	for i := range net.Layers {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("core: %s: %w", obs.StageAssemble, cerr)
		}
		lr := run.layerResult(i, choices)
		out.Layers = append(out.Layers, lr)
		out.Total.Add(lr.Stats)
		out.Traffic.Add(lr.Overhead)
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: %s: %w", obs.StageAssemble, cerr)
	}
	if s.Store != nil {
		// Only a fully assembled, uncancelled result is persisted, so
		// the store can never serve a partial schedule.
		s.Store.Put(store.KindNetwork, netKey, encodeNetworkResult(out))
	}
	return out, nil
}

// scheduleLayers is step 1: the per-layer loopnest searches, fanned out
// across the worker pool.
func (r *run) scheduleLayers(workers int, effBW float64, topK int) error {
	s, net := r.s, r.net
	n := net.NumLayers()
	var done atomic.Int64
	err := par.Each(r.ctx, workers, n, func(i int) error {
		cands, err := mapper.SearchCachedCtx(r.ctx, mapper.Request{
			Layer: &net.Layers[i],
			PEsX:  s.Spec.PEsX, PEsY: s.Spec.PEsY,
			GLBBits: s.Spec.GlobalBufferBits(), RFBits: s.Spec.RegFileBits(),
			EffectiveBytesPerCycle: effBW,
			TopK:                   topK,
			Opt:                    s.Mapper,
			Observe:                s.Observe,
			Store:                  s.Store,
		})
		if err != nil {
			return err
		}
		r.candidates[i] = cands
		r.ob.Observe(obs.Event{Kind: obs.EventLayer, Layer: &obs.LayerEvent{
			Stage: obs.StageMapping,
			Index: i, Name: net.Layers[i].Name,
			Done: int(done.Add(1)), Total: n,
		}})
		return nil
	})
	if err != nil {
		return err
	}
	for i := range net.Layers {
		if len(r.candidates[i]) == 0 {
			return fmt.Errorf("no valid mapping for layer %s", net.Layers[i].Name)
		}
	}
	return nil
}

// annealSegments is step 3: concurrent per-segment annealing. Each segment
// observes the shared context through anneal.MinimizeCtx's move-chunk
// polling; a cancelled segment's partial best is discarded.
func (r *run) annealSegments(segs [][]int, tunable, workers int, choices []int) error {
	return par.Each(r.ctx, workers, len(segs), func(si int) error {
		seg := segs[si]
		opts := r.s.Anneal
		opts.Iterations = int(num.MulInt64(int64(r.s.Anneal.Iterations), int64(len(seg))) / int64(tunable))
		if opts.Iterations < 30 {
			opts.Iterations = 30
		}
		res, err := anneal.MinimizeCtx(r.ctx, &segmentProblem{run: r, segment: seg}, opts, r.ob, seg[0])
		if err != nil {
			return err
		}
		for j, li := range seg {
			choices[li] = res.Choices[j]
		}
		return nil
	})
}

// run carries the per-invocation state: candidates, the dense AuthBlock
// pair-cost matrices and the dense per-layer evaluation memos.
type run struct {
	s          *Scheduler
	net        *workload.Network
	alg        Algorithm
	candidates [][]mapper.Candidate

	// ctx is the run's cancellation context and ob its progress observer;
	// newRun defaults them (background, no-op) so internal callers that
	// build a run directly need no ceremony, and ScheduleNetworkCtx
	// overrides both.
	ctx context.Context
	ob  obs.Observer

	// prevOf, nextOf are each layer's in-segment neighbours (-1 at segment
	// boundaries), precomputed so the hot path never rescans the segment
	// table.
	prevOf, nextOf []int

	// pairMats[a] is the dense (producer choice x consumer choice) matrix
	// of AuthBlock costs and assignments for the tensor layer a shares with
	// its in-segment successor; nil until first needed. Cross-layer runs
	// precompute every entry before annealing, making lookups lock-free;
	// other algorithms fill entries lazily on the serial path.
	pairMats []*pairMatrix

	// layerMemos[li] is the dense memo of layer li's scheduled cost indexed
	// by (choice, prevChoice, nextChoice); an empty entries slice means
	// unmemoised.
	layerMemos []layerMemo

	// layerEvals counts non-memoised layer evaluations (observability for
	// the annealing benchmarks); atomic because segments anneal in parallel.
	layerEvals atomic.Int64
	// memoOff disables the layer memo (benchmarks of the unmemoised path).
	memoOff bool
}

// newRun precomputes the neighbour tables and allocates the per-layer state.
func newRun(s *Scheduler, net *workload.Network, alg Algorithm) *run {
	n := net.NumLayers()
	r := &run{
		s:          s,
		net:        net,
		alg:        alg,
		ctx:        context.Background(),
		ob:         obs.OrNop(nil),
		candidates: make([][]mapper.Candidate, n),
		prevOf:     make([]int, n),
		nextOf:     make([]int, n),
		pairMats:   make([]*pairMatrix, n),
		layerMemos: make([]layerMemo, n),
	}
	for i := 0; i < n; i++ {
		r.prevOf[i], r.nextOf[i] = -1, -1
	}
	for _, seg := range net.Segments {
		for pos, li := range seg {
			if pos > 0 {
				r.prevOf[li] = seg[pos-1]
			}
			if pos+1 < len(seg) {
				r.nextOf[li] = seg[pos+1]
			}
		}
	}
	return r
}

// layerMemo is the dense per-layer evaluation memo. The full dependency set
// of one layer's scheduled cost is (choice, prevChoice, nextChoice) — a
// single-layer annealing move invalidates nothing and misses at most three
// slots — and the dense indexing replaces the former map[layerKey] with
// pure array arithmetic.
type layerMemo struct {
	// entries is the (choice, prevChoice+1, nextChoice+1) row-major memo;
	// cycles < 0 marks an empty slot.
	entries []layerCost
	// kp1, kn1 are the neighbour index strides (neighbour candidate count
	// plus one for the -1 boundary sentinel).
	kp1, kn1 int
}

// layerCost is the memoised evaluation result.
type layerCost struct {
	cycles   int64
	energyPJ float64
}

// prepareLayerMemos sizes the dense memos for every layer of the given
// segments (no-op when memoisation is disabled).
func (r *run) prepareLayerMemos(segs [][]int) {
	if r.memoOff {
		return
	}
	for _, seg := range segs {
		for _, li := range seg {
			ki := len(r.candidates[li])
			kp1, kn1 := 1, 1
			if p := r.prevOf[li]; p >= 0 {
				kp1 = len(r.candidates[p]) + 1
			}
			if n := r.nextOf[li]; n >= 0 {
				kn1 = len(r.candidates[n]) + 1
			}
			entries := make([]layerCost, num.MulInt(num.MulInt(ki, kp1), kn1))
			for i := range entries {
				entries[i].cycles = -1
			}
			r.layerMemos[li] = layerMemo{entries: entries, kp1: kp1, kn1: kn1}
		}
	}
}

// neighbors returns the segment neighbours of layer index li: the in-segment
// predecessor and successor, or -1.
func (r *run) neighbors(li int) (prev, next int) {
	return r.prevOf[li], r.nextOf[li]
}

// choicesAt resolves the choice vector into the explicit (choice,
// prevChoice, nextChoice) dependency triple of layer li.
func (r *run) choicesAt(li int, choices []int) (ci, cp, cn int) {
	prev, next := r.neighbors(li)
	ci, cp, cn = choices[li], -1, -1
	if prev >= 0 {
		cp = choices[prev]
	}
	if next >= 0 {
		cn = choices[next]
	}
	return ci, cp, cn
}

// layerOverheadAt assembles the authentication overhead charged to layer li
// with schedule choice ci, given in-segment neighbour choices cp and cn
// (-1 when the layer starts/ends its segment).
func (r *run) layerOverheadAt(li, ci, cp, cn int) (model.Overhead, authblock.Assignment) {
	var ov model.Overhead
	var ofmapAssign authblock.Assignment
	if r.alg == Unsecure {
		return ov, ofmapAssign
	}
	l := &r.net.Layers[li]
	m := r.candidates[li][ci].Mapping
	par := r.s.Params

	// Weights: tile-as-an-AuthBlock is optimal (no overlap, no consumer).
	wt := m.WeightDRAMTiling(l)
	wc := authblock.WeightCosts(wt.NumTiles, wt.FetchesPer, par)
	ov.HashBits[workload.Weight] += wc.HashReadBits + wc.HashWriteBits

	prev, next := r.neighbors(li)

	// Ifmap side.
	if cp < 0 {
		// Segment source: blocks provisioned to match this consumer.
		sc := authblock.SourceCosts(consumerGrid(l, m), par)
		ov.HashBits[workload.Ifmap] += sc.HashReadBits
	} else {
		costs, _ := r.pairCosts(prev, li, cp, ci)
		ov.HashBits[workload.Ifmap] += costs.HashReadBits
		ov.RedundantBits[workload.Ifmap] += costs.RedundantBits
		ov.RehashBits += costs.RehashBits
	}

	// Ofmap side.
	if cn < 0 {
		sk := authblock.SinkCosts(producerGrid(l, m), par)
		ov.HashBits[workload.Ofmap] += sk.HashWriteBits
	} else {
		costs, assign := r.pairCosts(li, next, ci, cn)
		ov.HashBits[workload.Ofmap] += costs.HashWriteBits
		ofmapAssign = assign
	}
	return ov, ofmapAssign
}

// layerResultAt evaluates layer li under explicit choices.
func (r *run) layerResultAt(li, ci, cp, cn int) LayerResult {
	l := &r.net.Layers[li]
	m := r.candidates[li][ci].Mapping
	ov, assign := r.layerOverheadAt(li, ci, cp, cn)
	var stats model.Stats
	if r.alg == Unsecure {
		stats = model.Evaluate(l, &r.s.Spec, m)
	} else {
		stats = model.EvaluateSecure(l, &r.s.Spec, m, r.s.Crypto, ov)
	}
	return LayerResult{
		Index:           li,
		Choice:          ci,
		Mapping:         m,
		Stats:           stats,
		Overhead:        ov,
		OfmapAssignment: assign,
	}
}

// layerResult evaluates layer li under the choice vector.
func (r *run) layerResult(li int, choices []int) LayerResult {
	ci, cp, cn := r.choicesAt(li, choices)
	return r.layerResultAt(li, ci, cp, cn)
}

// layerEval returns the scheduled cycles and energy of layer li under
// explicit choices, memoised densely on the layer's full dependency set. A
// hit is two array reads; concurrent segments only touch disjoint layers,
// so the memo needs no locks.
func (r *run) layerEval(li, ci, cp, cn int) layerCost {
	m := &r.layerMemos[li]
	if m.entries == nil {
		r.layerEvals.Add(1)
		lr := r.layerResultAt(li, ci, cp, cn)
		return layerCost{cycles: lr.Stats.Cycles, energyPJ: lr.Stats.EnergyPJ}
	}
	idx := num.MulInt(num.MulInt(ci, m.kp1)+cp+1, m.kn1) + cn + 1
	if v := m.entries[idx]; v.cycles >= 0 {
		return v
	}
	r.layerEvals.Add(1)
	lr := r.layerResultAt(li, ci, cp, cn)
	v := layerCost{cycles: lr.Stats.Cycles, energyPJ: lr.Stats.EnergyPJ}
	m.entries[idx] = v
	return v
}

// segmentProblem adapts one segment to the annealing interface. The cost is
// the total latency of the segment's layers (cycles), including
// authentication overhead, under the tentative choices. Each instance is
// self-contained, so independent segments can anneal concurrently.
type segmentProblem struct {
	run     *run
	segment []int
}

func (p *segmentProblem) NumLayers() int { return len(p.segment) }

func (p *segmentProblem) NumChoices(i int) int {
	return len(p.run.candidates[p.segment[i]])
}

func (p *segmentProblem) Cost(choices []int) float64 {
	return p.costWith(choices, -1, 0)
}

// DeltaCost implements anneal.Incremental: the cost of `choices` with
// component i moved to next. A single-layer move perturbs only that layer
// and its two in-segment neighbours, so at most three layers need a fresh
// evaluation — everything else is a dense-memo hit, and the steady-state
// move allocates nothing.
func (p *segmentProblem) DeltaCost(choices []int, i, next int) float64 {
	return p.costWith(choices, i, next)
}

// costWith evaluates the segment cost of `choices` with component i
// overridden to next (i < 0 means no override). Per-layer values come from
// the run's dense layer memo and are summed in segment order, so the result
// is bitwise identical however the same state is reached.
func (p *segmentProblem) costWith(choices []int, i, next int) float64 {
	seg := p.segment
	var cycles int64
	var energy float64
	for j, li := range seg {
		ci := choices[j]
		if j == i {
			ci = next
		}
		cp, cn := -1, -1
		if j > 0 {
			if cp = choices[j-1]; j-1 == i {
				cp = next
			}
		}
		if j+1 < len(seg) {
			if cn = choices[j+1]; j+1 == i {
				cn = next
			}
		}
		c := p.run.layerEval(li, ci, cp, cn)
		cycles += c.cycles
		energy += c.energyPJ
	}
	if p.run.s.Objective == MinEDP {
		return energy * float64(cycles)
	}
	return float64(cycles)
}
