// Package core is the SecureLoop scheduling engine: it ties together the
// three steps of the paper's search (Figure 6) — cryptographic-engine-aware
// loopnest scheduling (Section 4.1), optimal AuthBlock assignment
// (Section 4.2) and cross-layer fine tuning with simulated annealing
// (Section 4.3) — and exposes the Table 1 scheduling algorithms used
// throughout the evaluation.
package core

import (
	"fmt"

	"secureloop/internal/anneal"
	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/mapping"
	"secureloop/internal/model"
	"secureloop/internal/obs"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// Algorithm selects a scheduling algorithm (Table 1).
type Algorithm int

const (
	// Unsecure is the baseline accelerator without cryptographic engines;
	// secure latencies are normalised to it (Figure 11a).
	Unsecure Algorithm = iota
	// CryptTileSingle: crypto-aware loopnest scheduling with the
	// tile-as-an-AuthBlock assignment of prior work, no cross-layer search.
	CryptTileSingle
	// CryptOptSingle: adds the optimal AuthBlock assignment (step 2).
	CryptOptSingle
	// CryptOptCross: adds cross-layer fine tuning (step 3).
	CryptOptCross
)

// String names the algorithm as in Table 1.
func (a Algorithm) String() string {
	switch a {
	case Unsecure:
		return "Unsecure"
	case CryptTileSingle:
		return "Crypt-Tile-Single"
	case CryptOptSingle:
		return "Crypt-Opt-Single"
	case CryptOptCross:
		return "Crypt-Opt-Cross"
	}
	return "unknown"
}

// Algorithms lists the three secure algorithms in Table 1 order.
func Algorithms() []Algorithm {
	return []Algorithm{CryptTileSingle, CryptOptSingle, CryptOptCross}
}

// EffectiveBandwidth is the off-chip bandwidth step 1 schedules against:
// the DRAM bandwidth for the unsecure algorithm, min(DRAM, crypto
// aggregate) otherwise. The DSE pruning bound calls it too, so the bound
// and the schedule it bounds can never disagree on this number.
func EffectiveBandwidth(spec arch.Spec, crypto cryptoengine.Config, alg Algorithm) float64 {
	if alg == Unsecure {
		return float64(spec.DRAM.BytesPerCycle)
	}
	return crypto.EffectiveBytesPerCycle(spec.DRAM.BytesPerCycle)
}

// Objective selects what the cross-layer fine-tuning step minimises.
type Objective int

const (
	// MinLatency minimises total cycles (the paper's Algorithm 1 cost).
	MinLatency Objective = iota
	// MinEDP minimises the energy-delay product, trading some latency for
	// energy where the schedule space allows.
	MinEDP
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MinLatency:
		return "latency"
	case MinEDP:
		return "edp"
	}
	return "unknown"
}

// Scheduler configures a SecureLoop run.
type Scheduler struct {
	// Spec is the accelerator architecture.
	Spec arch.Spec
	// Crypto is the cryptographic-engine configuration (unused by the
	// Unsecure algorithm).
	Crypto cryptoengine.Config
	// Params carries word and hash widths for the AuthBlock cost model.
	Params authblock.Params
	// TopK is the per-layer schedule count kept for the annealing neighbour
	// sets (the paper settles on k=6, Figure 10).
	TopK int
	// Anneal tunes the simulated-annealing step.
	Anneal anneal.Options
	// Objective selects the fine-tuning cost (default MinLatency,
	// Algorithm 1's PerfModel).
	Objective Objective
	// MaxParallel bounds the worker pool used for the per-layer scheduling
	// step (<= 0 means one worker per available CPU). Set to 1 to force the
	// serial path; results are identical either way.
	MaxParallel int
	// Mapper selects the per-layer loopnest search strategy (zero value:
	// exhaustive). Guided mode at the default Epsilon = 0 returns results
	// byte-identical to exhaustive except on layers whose stride exceeds
	// the filter extent, where its answers can depend on which searches ran
	// before (DESIGN.md §12).
	Mapper mapper.Options
	// Observe receives progress events from every stage of the run (nil
	// means none). Event emission is wall-clock-free and happens outside
	// the random annealing trajectory, so an observed run returns results
	// byte-identical to an unobserved one.
	Observe obs.Observer
	// Store, when non-nil, is the persistent content-addressed result tier:
	// whole-network schedules, per-layer mapper searches and AuthBlock
	// optimal assignments read through to it and are written into it, so
	// identical requests resolve across processes and restarts. A store hit
	// returns results byte-identical to the search it replaces.
	Store *store.Store
}

// New returns a scheduler with the paper's default knobs: k=6 and 1000
// annealing iterations.
func New(spec arch.Spec, crypto cryptoengine.Config) *Scheduler {
	return &Scheduler{
		Spec:   spec,
		Crypto: crypto,
		Params: authblock.DefaultParams(),
		TopK:   6,
		Anneal: anneal.DefaultOptions(),
	}
}

// LayerResult is the schedule and cost of one layer.
type LayerResult struct {
	// Index is the layer's position in the network.
	Index int
	// Choice is the index of the chosen schedule in the layer's top-k
	// candidate list (0 outside Crypt-Opt-Cross, where only top-1 is kept).
	Choice int
	// Mapping is the chosen loopnest schedule.
	Mapping *mapping.Mapping
	// Stats is the evaluated performance/energy.
	Stats model.Stats
	// Overhead is the authentication traffic charged to the layer.
	Overhead model.Overhead
	// OfmapAssignment is the AuthBlock regime of the layer's ofmap when it
	// feeds an in-segment consumer under an Opt algorithm (zero value
	// otherwise).
	OfmapAssignment authblock.Assignment
}

// Traffic is the network-level additional off-chip traffic breakdown of
// Figure 11b.
type Traffic struct {
	HashBits      int64
	RedundantBits int64
	RehashBits    int64
}

// Total returns all overhead bits.
func (t Traffic) Total() int64 { return t.HashBits + t.RedundantBits + t.RehashBits }

// Add accumulates an overhead into the breakdown.
func (t *Traffic) Add(ov model.Overhead) {
	for i := 0; i < 3; i++ {
		t.HashBits += ov.HashBits[i]
		t.RedundantBits += ov.RedundantBits[i]
	}
	t.RehashBits += ov.RehashBits
}

// NetworkResult is a scheduled network with totals.
type NetworkResult struct {
	Network   *workload.Network
	Algorithm Algorithm
	Layers    []LayerResult
	// Total accumulates per-layer stats (latency sums serially).
	Total model.Stats
	// Traffic is the authentication-overhead breakdown.
	Traffic Traffic
}

// Validate checks the scheduler configuration.
func (s *Scheduler) Validate() error {
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if err := s.Crypto.Validate(); err != nil {
		return err
	}
	if s.Params.WordBits <= 0 || s.Params.HashBits <= 0 {
		return fmt.Errorf("core: params must be positive")
	}
	if s.TopK < 1 || s.TopK > maxTopK {
		return fmt.Errorf("core: TopK must be in [1, %d]", maxTopK)
	}
	return nil
}

// maxTopK caps the per-layer candidate count (DESIGN §15). Figure 10
// sweeps k <= 10; at 16 the k^2 pair matrices and the k^3 layer memos stay
// inside the service's 8 MiB + 1 MiB-per-layer admission estimate.
const maxTopK = 16
