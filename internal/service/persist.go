package service

import (
	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/dse"
	"secureloop/internal/mapper"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// Request identity: every service request is content-addressed with the
// store's canonical key codec, and that key is the singleflight coalescing
// identity — two requests share one flight exactly when their canonical
// encodings agree. The schedule key delegates to the scheduler's own
// EncodeRequest, so "identical service request" and "identical network-tier
// store request" are the same relation by construction.
//
// Deliberately excluded from every key (same rationale as internal/core's
// network tier): Name fields are labels over encoded numerics.
//
// storekey:exclude workload.Network.Name results are shape-keyed; the network name is a label
// storekey:exclude workload.Layer.Name results are shape-keyed; the layer name is a label
// storekey:exclude arch.Spec.Name architecture names are labels over the encoded numerics
// storekey:exclude arch.DRAMTech.Name DRAM technology names are labels over the encoded numerics
// storekey:exclude cryptoengine.EngineArch.Name engine names are labels over the encoded unit specs

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
	return e.Key()
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
		encodeNetwork(e, req.Network)
		e.Int(int64(len(req.Specs)))
		for i := range req.Specs {
			encodeSpec(e, &req.Specs[i])
		}
		e.Int(int64(len(req.Cryptos)))
		for i := range req.Cryptos {
			encodeCrypto(e, &req.Cryptos[i])
		}
		e.Int(int64(req.AnnealIterations))
		e.Int(int64(req.Mapper.Mode)).Float(req.Mapper.Epsilon).Bool(req.Mapper.DisableWarmStart)
	}
	return opt
}

// persistAuthBlockKey canonically encodes the authblock request identity.
func persistAuthBlockKey(req *AuthBlockRequest) store.Key {
	e := store.NewEnc().String(authBlockPrefix)
	encodeAuthBlockRequest(e, req)
	return e.Key()
}

// encodeAuthBlockRequest appends every field of the grids, the params and
// the sweep selection — the full dependency set of the response.
func encodeAuthBlockRequest(e *store.Enc, req *AuthBlockRequest) {
	p, c := req.Producer, req.Consumer
	e.Int(int64(p.C)).Int(int64(p.H)).Int(int64(p.W)).
		Int(int64(p.TileC)).Int(int64(p.TileH)).Int(int64(p.TileW)).
		Int(p.WritesPerTile)
	e.Int(int64(c.TileC)).
		Int(int64(c.WinH)).Int(int64(c.WinW)).
		Int(int64(c.StepH)).Int(int64(c.StepW)).
		Int(int64(c.OffH)).Int(int64(c.OffW)).
		Int(int64(c.CountC)).Int(int64(c.CountH)).Int(int64(c.CountW)).
		Int(c.FetchesPerTile)
	e.Int(int64(req.Params.WordBits)).Int(int64(req.Params.HashBits))
	e.Int(int64(req.Orientation)).Int(int64(req.MaxU))
}

// encodeNetwork appends the network's shape identity: every layer shape in
// order, then the segment structure (the same field set as the core network
// key's shape section).
func encodeNetwork(e *store.Enc, net *workload.Network) {
	e.Int(int64(len(net.Layers)))
	for i := range net.Layers {
		mapper.EncodeLayerShape(e, net.Layers[i])
	}
	e.Int(int64(len(net.Segments)))
	for _, seg := range net.Segments {
		e.Int(int64(len(seg)))
		for _, li := range seg {
			e.Int(int64(li))
		}
	}
}

// encodeSpec appends the architecture numerics (names are labels, waived).
func encodeSpec(e *store.Enc, spec *arch.Spec) {
	e.Int(int64(spec.PEsX)).Int(int64(spec.PEsY)).
		Int(int64(spec.GlobalBufferBytes)).Int(int64(spec.RegFileBytesPerPE)).
		Int(int64(spec.WordBits)).Float(spec.ClockHz).
		Int(int64(spec.DRAM.BytesPerCycle)).Float(spec.DRAM.EnergyPerBit)
}

// encodeCrypto appends the crypto-engine numerics.
func encodeCrypto(e *store.Enc, c *cryptoengine.Config) {
	eng := c.Engine
	e.Int(int64(eng.AES.Cycles)).Float(eng.AES.AreaKGates).Float(eng.AES.EnergyPJ).
		Int(int64(eng.GFMult.Cycles)).Float(eng.GFMult.AreaKGates).Float(eng.GFMult.EnergyPJ).
		Int(int64(c.CountPerDatatype))
}
