package service

import (
	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/dse"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// Request identity: every service request is content-addressed with the
// store's canonical key codec, and that key is the singleflight coalescing
// identity — two requests share one flight exactly when their canonical
// encodings agree. These keys name flights only; no record is stored under
// them. The schedule key is the scheduler's own EncodeRequest (the
// network-tier store key's content) followed by the labels the response
// carries: the network, layer, architecture and crypto engine names. The
// store tiers are shape-keyed and leave those names out, but two requests
// that share a flight share one body, so the flight key must tell them
// apart.
//
// storekey:exclude arch.DRAMTech.Name DRAM technology names are labels over the encoded numerics and no response carries them

// Key prefixes namespace the three request kinds within one store.
const (
	schedulePrefix  = "service.schedule"
	sweepPrefix     = "service.sweep"
	authBlockPrefix = "service.authblock"
)

// persistScheduleKey canonically encodes the schedule request identity.
func persistScheduleKey(req *ScheduleRequest) store.Key {
	e := store.NewEnc().String(schedulePrefix)
	req.schedulerEnc(e)
	encodeLabels(e, req.Network, []arch.Spec{req.Spec}, []cryptoengine.Config{req.Crypto})
	return e.Key()
}

// encodeLabels appends the names a schedule or sweep response carries, in
// request order. The counts are already in the key, so the sequence is
// unambiguous.
func encodeLabels(e *store.Enc, net *workload.Network, specs []arch.Spec, cryptos []cryptoengine.Config) {
	e.String(net.Name)
	for i := range net.Layers {
		e.String(net.Layers[i].Name)
	}
	for i := range specs {
		e.String(specs[i].Name)
	}
	for i := range cryptos {
		e.String(cryptos[i].Engine.Name)
	}
}

// schedulerEnc materialises the core.Scheduler the request describes and,
// when e is non-nil, appends the request's canonical identity encoding. One
// function does both on purpose: the executed configuration and the encoded
// identity read exactly the same request fields, so a new knob that changes
// scheduling cannot ship without joining the key (the keydrift check pins
// the field set here).
func (req *ScheduleRequest) schedulerEnc(e *store.Enc) *core.Scheduler {
	sch := core.New(req.Spec, req.Crypto)
	sch.Objective = req.Objective
	if req.TopK > 0 {
		sch.TopK = req.TopK
	}
	if req.AnnealIterations > 0 {
		sch.Anneal.Iterations = req.AnnealIterations
	}
	sch.Mapper = req.Mapper
	if e != nil {
		sch.EncodeRequest(e, req.Network, req.Algorithm)
	}
	return sch
}

// persistSweepKey canonically encodes the sweep request identity.
func persistSweepKey(req *SweepRequest) store.Key {
	e := store.NewEnc().String(sweepPrefix)
	req.optionsEnc(e)
	encodeLabels(e, req.Network, req.Specs, req.Cryptos)
	return e.Key()
}

// optionsEnc materialises the dse.Options the request describes and, when e
// is non-nil, appends the request's canonical identity encoding — the same
// single-definition pattern as schedulerEnc.
func (req *SweepRequest) optionsEnc(e *store.Enc) dse.Options {
	opt := dse.Options{
		AnnealIterations: req.AnnealIterations,
		Mapper:           req.Mapper,
		Prune:            req.Front,
	}
	if e != nil {
		e.Int(int64(req.Algorithm)).Bool(req.Front)
		req.Network.EncodeShape(e)
		e.Int(int64(len(req.Specs)))
		for i := range req.Specs {
			req.Specs[i].Encode(e)
		}
		e.Int(int64(len(req.Cryptos)))
		for i := range req.Cryptos {
			req.Cryptos[i].Encode(e)
		}
		e.Int(int64(req.AnnealIterations))
		req.Mapper.Encode(e)
	}
	return opt
}

// persistAuthBlockKey canonically encodes the authblock request identity:
// both grids and the params (the optimal-assignment store key's fields),
// then the sweep selection — the full dependency set of the response.
func persistAuthBlockKey(req *AuthBlockRequest) store.Key {
	e := store.NewEnc().String(authBlockPrefix)
	req.Producer.Encode(e)
	req.Consumer.Encode(e)
	req.Params.Encode(e)
	e.Int(int64(req.Orientation)).Int(int64(req.MaxU))
	return e.Key()
}
