// Package cryptoengine models the on-chip AES-GCM cryptographic engines of a
// secure DNN accelerator: their throughput (cycles per 128-bit block), area
// (equivalent kGates, normalised to 40 nm) and energy (pJ per block), as
// well as derived quantities SecureLoop needs — the effective off-chip
// bandwidth min(memory, crypto) of paper Section 4.1 and the per-block
// encryption/authentication energy folded into off-chip access cost.
//
// The three engine microarchitectures of the paper's Table 2 (fully
// pipelined, round-parallel, bit-serial) are provided as constructors, and
// the catalog of published AES implementations behind Figure 3 is exported
// for the design-space study.
package cryptoengine

import (
	"fmt"

	"secureloop/internal/num"
	"secureloop/internal/store"
)

// BlockBytes is the AES block size the engines operate on.
const BlockBytes = 16

// BlockBits is the AES block size in bits.
const BlockBits = 128

// UnitSpec describes one datapath unit (an AES core or a Galois-field
// multiplier) as in the paper's Table 2.
type UnitSpec struct {
	// Cycles is the number of cycles the unit needs per 128-bit block. For a
	// fully pipelined unit this is the initiation interval (1), not the
	// fill latency.
	Cycles int
	// AreaKGates is the equivalent gate count in thousands, normalised to
	// 40 nm technology.
	AreaKGates float64
	// EnergyPJ is the energy per 128-bit block in picojoules.
	EnergyPJ float64
}

// EngineArch is a complete AES-GCM engine: an AES core (producing the
// one-time pad for CTR-mode encryption) plus a Galois-field multiplier
// (computing the GHASH authentication tag).
type EngineArch struct {
	Name   string
	AES    UnitSpec
	GFMult UnitSpec
}

// CyclesPerBlock is the steady-state initiation interval of the engine: one
// 128-bit block is encrypted (or decrypted) and absorbed into the hash every
// CyclesPerBlock cycles. The AES core and the GF multiplier operate on
// consecutive blocks concurrently, so the slower unit sets the interval.
func (e EngineArch) CyclesPerBlock() int {
	if e.AES.Cycles > e.GFMult.Cycles {
		return e.AES.Cycles
	}
	return e.GFMult.Cycles
}

// BytesPerCycle is the engine's sustained throughput.
func (e EngineArch) BytesPerCycle() float64 {
	return float64(BlockBytes) / float64(e.CyclesPerBlock())
}

// AreaKGates is the total engine area.
func (e EngineArch) AreaKGates() float64 { return e.AES.AreaKGates + e.GFMult.AreaKGates }

// EnergyPerBlockPJ is the energy to encrypt-and-authenticate one block.
func (e EngineArch) EnergyPerBlockPJ() float64 { return e.AES.EnergyPJ + e.GFMult.EnergyPJ }

// EnergyPerBitPJ is the crypto energy per data bit moved off-chip.
func (e EngineArch) EnergyPerBitPJ() float64 { return e.EnergyPerBlockPJ() / BlockBits }

// The paper's Table 2 engine architectures.
//
// Pipelined: a fully-pipelined AES engine with a single-cycle Galois-field
// multiplier — high throughput, large area.
// Parallel: a round-parallel AES (one round per cycle, 11 cycles for
// AES-128) with an 8-cycle GF multiplier — the area-efficient parallel
// implementation of Banerjee et al. used as the default engine in
// Section 5.1.
// Serial: a bit-serial datapath — smallest area, lowest throughput.
func Pipelined() EngineArch {
	return EngineArch{
		Name:   "pipelined",
		AES:    UnitSpec{Cycles: 1, AreaKGates: 78.8, EnergyPJ: 165.1},
		GFMult: UnitSpec{Cycles: 1, AreaKGates: 60.1, EnergyPJ: 57.7},
	}
}

func Parallel() EngineArch {
	return EngineArch{
		Name:   "parallel",
		AES:    UnitSpec{Cycles: 11, AreaKGates: 9.2, EnergyPJ: 194.6},
		GFMult: UnitSpec{Cycles: 8, AreaKGates: 9.7, EnergyPJ: 82.4},
	}
}

func Serial() EngineArch {
	return EngineArch{
		Name:   "serial",
		AES:    UnitSpec{Cycles: 336, AreaKGates: 3.0, EnergyPJ: 768},
		GFMult: UnitSpec{Cycles: 128, AreaKGates: 3.3, EnergyPJ: 345.6},
	}
}

// Architectures returns the Table 2 engines in the paper's order.
func Architectures() []EngineArch {
	return []EngineArch{Pipelined(), Parallel(), Serial()}
}

// ByName returns the named Table 2 engine.
func ByName(name string) (EngineArch, error) {
	for _, e := range Architectures() {
		if e.Name == name {
			return e, nil
		}
	}
	return EngineArch{}, fmt.Errorf("cryptoengine: unknown engine %q (want pipelined, parallel or serial)", name)
}

// Config is a deployed cryptographic-engine configuration: CountPerDatatype
// identical engines are dedicated to each of the three datatypes (weight,
// ifmap, ofmap), following the per-datatype engine organisation of prior
// work the paper adopts (Section 3.1).
type Config struct {
	Engine           EngineArch
	CountPerDatatype int
}

// maxCount caps the engines per datatype (DESIGN §15).
const maxCount = 1 << 16

// Validate reports whether the engine count is positive and at most 2^16.
func (c Config) Validate() error {
	if c.CountPerDatatype <= 0 || c.CountPerDatatype > maxCount {
		return fmt.Errorf("cryptoengine: engine count must be in [1, 2^16], got %d", c.CountPerDatatype)
	}
	return nil
}

// String labels the configuration the way the paper's Figure 13 does.
func (c Config) String() string {
	return fmt.Sprintf("%s x %d", c.Engine.Name, c.CountPerDatatype)
}

// DatatypeBytesPerCycle is the sustained crypto throughput available to one
// datatype's traffic stream.
func (c Config) DatatypeBytesPerCycle() float64 {
	return float64(c.CountPerDatatype) * c.Engine.BytesPerCycle()
}

// TotalBytesPerCycle is the aggregate crypto throughput across the three
// datatype-dedicated engine groups.
func (c Config) TotalBytesPerCycle() float64 {
	return 3 * c.DatatypeBytesPerCycle()
}

// TotalAreaKGates is the total silicon area of all engines.
func (c Config) TotalAreaKGates() float64 {
	return 3 * float64(c.CountPerDatatype) * c.Engine.AreaKGates()
}

// CyclesForBytes returns the cycles one datatype's engine group needs to
// process n bytes of off-chip traffic (whole blocks; partial blocks round
// up, since GCM pads the final block).
func (c Config) CyclesForBytes(n int64) int64 {
	if n <= 0 {
		return 0
	}
	blocks := num.CeilDiv64(n, BlockBytes)
	perEngine := num.CeilDiv64(blocks, int64(c.CountPerDatatype))
	return perEngine * int64(c.Engine.CyclesPerBlock())
}

// EnergyForBytesPJ returns the crypto energy to process n bytes.
func (c Config) EnergyForBytesPJ(n int64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := num.CeilDiv64(n, BlockBytes)
	return float64(blocks) * c.Engine.EnergyPerBlockPJ()
}

// EffectiveBytesPerCycle implements the paper's Section 4.1 model: every
// off-chip access traverses both the DRAM interface and the cryptographic
// engine, so the slower of the two limits the effective off-chip bandwidth
// the loopnest scheduler may assume.
func (c Config) EffectiveBytesPerCycle(dramBytesPerCycle int) float64 {
	crypt := c.TotalBytesPerCycle()
	if crypt < float64(dramBytesPerCycle) {
		return crypt
	}
	return float64(dramBytesPerCycle)
}

// Figure13Configs returns the engine configurations swept in Figure 13.
func Figure13Configs() []Config {
	return []Config{
		{Engine: Parallel(), CountPerDatatype: 1},
		{Engine: Parallel(), CountPerDatatype: 5},
		{Engine: Pipelined(), CountPerDatatype: 1},
		{Engine: Parallel(), CountPerDatatype: 10},
		{Engine: Serial(), CountPerDatatype: 30},
		{Engine: Pipelined(), CountPerDatatype: 2},
	}
}

// Encode appends the configuration's numerics to a store key. The engine
// name is a label and is left out.
func (c *Config) Encode(e *store.Enc) {
	eng := c.Engine
	e.Int(int64(eng.AES.Cycles)).Float(eng.AES.AreaKGates).Float(eng.AES.EnergyPJ).
		Int(int64(eng.GFMult.Cycles)).Float(eng.GFMult.AreaKGates).Float(eng.GFMult.EnergyPJ).
		Int(int64(c.CountPerDatatype))
}
