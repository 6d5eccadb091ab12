// Package service is the scheduling-as-a-service layer: a typed
// request/response model over the core scheduler, the DSE sweep and the
// AuthBlock optimiser, with a bounded load-shedding admission queue,
// singleflight coalescing of identical in-flight requests, per-request
// deadlines, an ordered progress-event stream per request, and an optional
// persistent result store mounted underneath. cmd/secured exposes it over
// HTTP/JSON; internal/service/client is the matching typed client.
//
// Request identity reuses the store's canonical key codec (store.Enc): two
// requests coalesce onto one flight, and warm-hit byte-identically against
// the store, exactly when their canonical encodings agree.
package service

import (
	"errors"

	"secureloop/internal/anneal"
	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/dse"
	"secureloop/internal/mapper"
	"secureloop/internal/workload"
)

// ScheduleRequest asks for one full network schedule: the workload, the
// architecture and crypto configuration, the algorithm, and the scheduler
// knobs that can change the result. Every field here is part of the request
// identity (see persist.go) unless explicitly waived there.
type ScheduleRequest struct {
	// Network is the workload to schedule.
	Network *workload.Network
	// Spec is the accelerator architecture.
	Spec arch.Spec
	// Crypto is the cryptographic-engine configuration.
	Crypto cryptoengine.Config
	// Algorithm selects the Table 1 scheduling algorithm.
	Algorithm core.Algorithm
	// Objective selects the fine-tuning cost (default MinLatency).
	Objective core.Objective
	// TopK overrides the per-layer candidate count when positive (default
	// 6, the paper's k).
	TopK int
	// AnnealIterations overrides the global annealing budget when positive
	// (default 1000).
	AnnealIterations int
	// Mapper selects the per-layer loopnest search strategy.
	Mapper mapper.Options
}

// Validate reports whether the request is well-formed enough to admit.
func (req *ScheduleRequest) Validate() error {
	if req.Network == nil {
		return errors.New("service: schedule request has no network")
	}
	if err := req.Network.Validate(); err != nil {
		return err
	}
	if req.Algorithm < core.Unsecure || req.Algorithm > core.CryptOptCross {
		return errors.New("service: unknown algorithm")
	}
	return req.scheduler().Validate()
}

// scheduler materialises the core.Scheduler this request describes. The
// request-to-scheduler mapping lives in schedulerEnc (persist.go) so the
// executed configuration and the encoded request identity can never drift
// apart.
func (req *ScheduleRequest) scheduler() *core.Scheduler {
	return req.schedulerEnc(nil)
}

// SweepRequest asks for a design-space sweep of the network across the
// given (spec, crypto) cross product.
type SweepRequest struct {
	// Network is the workload every design point schedules.
	Network *workload.Network
	// Specs and Cryptos span the design space (their cross product is the
	// point set). Empty means the paper's Figure 16 space over arch.Base().
	Specs   []arch.Spec
	Cryptos []cryptoengine.Config
	// Algorithm selects the scheduling algorithm per point.
	Algorithm core.Algorithm
	// AnnealIterations overrides the per-point annealing budget when
	// positive.
	AnnealIterations int
	// Mapper selects the per-layer search strategy for every point.
	Mapper mapper.Options
	// Front, when set, runs the sweep with dominance pruning and returns
	// only the area/latency Pareto front; otherwise every design point is
	// evaluated and returned (front members marked).
	Front bool
}

// Validate reports whether the request is well-formed enough to admit.
// Defaulting of an empty design space happens here, not at run time, so the
// request identity always encodes the concrete point set.
//
//securelint:ignore ctxfirst validation is O(len(specs)) field checks, not cancellable search work
func (req *SweepRequest) Validate() error {
	if req.Network == nil {
		return errors.New("service: sweep request has no network")
	}
	if err := req.Network.Validate(); err != nil {
		return err
	}
	if req.Algorithm < core.Unsecure || req.Algorithm > core.CryptOptCross {
		return errors.New("service: unknown algorithm")
	}
	if len(req.Specs) == 0 || len(req.Cryptos) == 0 {
		return errors.New("service: sweep request has an empty design space")
	}
	for i := range req.Specs {
		if err := req.Specs[i].Validate(); err != nil {
			return err
		}
	}
	for i := range req.Cryptos {
		if err := req.Cryptos[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Defaulted returns the request with its defaults spelled out: an empty
// design space becomes the paper's Figure 16 space over arch.Base(), and a
// non-positive annealing budget the scheduler's default, so requests that
// differ only in spelling a default share one identity.
func (req SweepRequest) Defaulted() SweepRequest {
	if len(req.Specs) == 0 && len(req.Cryptos) == 0 {
		req.Specs, req.Cryptos = dse.Figure16Space(arch.Base())
	}
	if req.AnnealIterations <= 0 {
		req.AnnealIterations = anneal.DefaultOptions().Iterations
	}
	return req
}

// AuthBlockRequest asks for the optimal AuthBlock assignment of one
// producer/consumer tiling mismatch, optionally with the cost curve of one
// orientation's block-size sweep (the paper's Figure 9 analysis).
type AuthBlockRequest struct {
	Producer authblock.ProducerGrid
	Consumer authblock.ConsumerGrid
	Params   authblock.Params
	// Orientation and MaxU select the optional sweep curve: when MaxU is
	// positive the response carries the u = 1..MaxU sweep for Orientation.
	Orientation authblock.Orientation
	MaxU        int
}

// Validate reports whether the request is well-formed enough to admit.
func (req *AuthBlockRequest) Validate() error {
	if err := authblock.ValidatePair(req.Producer, req.Consumer); err != nil {
		return err
	}
	if req.Params.WordBits <= 0 || req.Params.HashBits <= 0 {
		return errors.New("service: authblock params must be positive")
	}
	if req.Orientation < 0 || req.Orientation >= authblock.NumOrientations {
		return errors.New("service: unknown orientation")
	}
	if req.MaxU < 0 {
		return errors.New("service: negative sweep bound")
	}
	return nil
}
