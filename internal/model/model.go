// Package model is the analytical performance and energy model — the
// Timeloop-equivalent evaluation core. Given a layer, an architecture and a
// mapping it derives per-level access counts, the latency under the paper's
// pipelining assumption (every component double-buffered, so the slowest of
// compute, DRAM and cryptographic engines bounds throughput), and an energy
// roll-up using the accelergy tables.
package model

import (
	"math"

	"secureloop/internal/accelergy"
	"secureloop/internal/arch"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapping"
	"secureloop/internal/num"
	"secureloop/internal/workload"
)

// Stats is the evaluation result for one layer under one mapping.
type Stats struct {
	// Cycles is the layer latency: max(Compute, DRAM, Crypto).
	Cycles int64
	// ComputeCycles is the PE-array busy time.
	ComputeCycles int64
	// DRAMCycles is the off-chip transfer time (including authentication
	// overhead traffic when present).
	DRAMCycles int64
	// CryptoCycles is the busiest datatype engine group's processing time
	// (0 for unsecure designs).
	CryptoCycles int64

	// EnergyPJ is the total energy.
	EnergyPJ float64
	// DRAMEnergyPJ, CryptoEnergyPJ, OnChipEnergyPJ break the total down.
	DRAMEnergyPJ   float64
	CryptoEnergyPJ float64
	OnChipEnergyPJ float64

	// OffchipBits is the total off-chip traffic including overhead bits.
	OffchipBits int64
	// BaseOffchipBits is the data-only traffic (no hashes, no redundancy).
	BaseOffchipBits int64

	// Utilization is active PEs over total PEs.
	Utilization float64
}

// EDP returns the energy-delay product in pJ*cycles.
func (s Stats) EDP() float64 { return s.EnergyPJ * float64(s.Cycles) }

// Add accumulates another layer's stats (latencies add serially; traffic and
// energy add).
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.ComputeCycles += o.ComputeCycles
	s.DRAMCycles += o.DRAMCycles
	s.CryptoCycles += o.CryptoCycles
	s.EnergyPJ += o.EnergyPJ
	s.DRAMEnergyPJ += o.DRAMEnergyPJ
	s.CryptoEnergyPJ += o.CryptoEnergyPJ
	s.OnChipEnergyPJ += o.OnChipEnergyPJ
	s.OffchipBits += o.OffchipBits
	s.BaseOffchipBits += o.BaseOffchipBits
}

// Overhead is per-datatype extra off-chip traffic in bits caused by
// authentication: hash fetches/stores and redundant data reads. It is
// produced by the authblock package and charged to both the DRAM interface
// and the datatype's crypto engine group (redundant data must still be
// decrypted and hashed; hashes transit the DRAM bus but are produced or
// checked by the GF multiplier whose time the engine interval already
// covers, so only their bus time is charged).
type Overhead struct {
	// RedundantBits is per-datatype redundant data read bits.
	RedundantBits [3]int64
	// HashBits is per-datatype hash (tag) traffic bits.
	HashBits [3]int64
	// RehashBits is additional traffic from rehash operations (whole-tensor
	// read + write plus tags) that precede this layer's consumption of its
	// ifmap, charged to the ifmap datatype's stream.
	RehashBits int64
}

// Total returns all overhead bits.
func (o Overhead) Total() int64 {
	var t int64
	for i := 0; i < 3; i++ {
		t += o.RedundantBits[i] + o.HashBits[i]
	}
	return t + o.RehashBits
}

// DatatypeExtraBits returns the overhead bits attributable to a datatype's
// traffic stream.
func (o Overhead) DatatypeExtraBits(dt workload.Datatype) int64 {
	e := o.RedundantBits[dt] + o.HashBits[dt]
	if dt == workload.Ifmap {
		e += o.RehashBits
	}
	return e
}

// Evaluate computes unsecure-baseline stats: no crypto engines, full DRAM
// bandwidth.
func Evaluate(layer *workload.Layer, spec *arch.Spec, m *mapping.Mapping) Stats {
	return evaluate(layer, spec, m, nil, Overhead{})
}

// EvaluateSecure computes stats for a secure accelerator with the given
// crypto configuration and authentication overhead traffic.
func EvaluateSecure(layer *workload.Layer, spec *arch.Spec, m *mapping.Mapping, cfg cryptoengine.Config, ov Overhead) Stats {
	return evaluate(layer, spec, m, &cfg, ov)
}

func evaluate(layer *workload.Layer, spec *arch.Spec, m *mapping.Mapping, cfg *cryptoengine.Config, ov Overhead) Stats {
	var s Stats

	// Compute.
	s.ComputeCycles = m.TemporalIterations(layer)
	s.Utilization = float64(m.ActivePEs()) / float64(spec.NumPEs())

	// Off-chip traffic.
	off := m.Offchip(layer)
	wordBits := int64(layer.WordBits)
	s.BaseOffchipBits = off.TotalElems() * wordBits
	s.OffchipBits = s.BaseOffchipBits + ov.Total()

	totalBytes := (s.OffchipBits + 7) / 8
	s.DRAMCycles = num.CeilDiv64(totalBytes, int64(spec.DRAM.BytesPerCycle))

	// Crypto: each datatype's engine group processes that datatype's data
	// stream (including redundant reads and rehash traffic).
	if cfg != nil {
		var worst int64
		for _, dt := range workload.Datatypes {
			bits := off.DatatypeElems(dt)*wordBits + ov.RedundantBits[dt]
			if dt == workload.Ifmap {
				bits += ov.RehashBits
			}
			c := cfg.CyclesForBytes((bits + 7) / 8)
			if c > worst {
				worst = c
			}
		}
		s.CryptoCycles = worst
	}

	s.Cycles = s.ComputeCycles
	if s.DRAMCycles > s.Cycles {
		s.Cycles = s.DRAMCycles
	}
	if s.CryptoCycles > s.Cycles {
		s.Cycles = s.CryptoCycles
	}

	// Energy.
	macs := float64(layer.MACs())
	onchip := macs * accelergy.MACEnergyPJ
	onchip += 4 * macs * accelergy.RFEnergyPJ // wt read, if read, psum r/w
	glb := m.GLB(layer)
	onchip += float64(glb.Total()) * accelergy.GLBEnergyPJ(spec.GlobalBufferBytes)
	s.OnChipEnergyPJ = onchip

	s.DRAMEnergyPJ = float64(s.OffchipBits) * spec.DRAM.EnergyPerBit
	if cfg != nil {
		var bytes int64
		for _, dt := range workload.Datatypes {
			bits := off.DatatypeElems(dt)*wordBits + ov.DatatypeExtraBits(dt)
			bytes += (bits + 7) / 8
		}
		s.CryptoEnergyPJ = cfg.EnergyForBytesPJ(bytes)
	}
	s.EnergyPJ = s.OnChipEnergyPJ + s.DRAMEnergyPJ + s.CryptoEnergyPJ
	return s
}

// SchedulingCycles is the cost function the step-1 mapper minimises: the
// latency under an *effective* off-chip bandwidth (bytes/cycle), which per
// Section 4.1 is min(DRAM, crypto) for secure designs and the plain DRAM
// bandwidth otherwise. Authentication overhead is unknown at this stage and
// excluded.
func SchedulingCycles(layer *workload.Layer, m *mapping.Mapping, effectiveBytesPerCycle float64) int64 {
	compute := m.TemporalIterations(layer)
	bits := m.Offchip(layer).TotalElems() * int64(layer.WordBits)
	return SchedulingCyclesFor(compute, bits, effectiveBytesPerCycle)
}

// SchedulingCyclesFor is the permutation-dependent half of SchedulingCycles:
// given the (tiling-invariant) compute cycles and the off-chip traffic of one
// loop order, it applies the effective-bandwidth bottleneck. The mapper's
// search derives both inputs from its per-dimension tables, which replicate
// TemporalIterations and Offchip, so the permutation heuristics of a tiling
// share one set of trip counts; the arithmetic here is bit-identical to
// SchedulingCycles.
func SchedulingCyclesFor(computeCycles, offchipBits int64, effectiveBytesPerCycle float64) int64 {
	bytes := float64(offchipBits) / 8
	dram := int64(math.Ceil(bytes / effectiveBytesPerCycle))
	if dram > computeCycles {
		return dram
	}
	return computeCycles
}
