// Package arch describes the DNN accelerator architectures SecureLoop
// explores: a spatial array of processing elements (PEs), each with an ALU
// and a small local register file, backed by a shared on-chip global buffer
// (GLB) and off-chip DRAM (paper Section 5, "Base Architecture
// Configuration"). The package also carries the off-chip DRAM technology
// parameters used in the Section 5.2 DRAM study.
package arch

import (
	"fmt"
	"strings"

	"secureloop/internal/num"
	"secureloop/internal/store"
)

// DRAMTech identifies an off-chip memory technology with its sustained
// bandwidth and access energy.
type DRAMTech struct {
	// Name labels the technology (e.g. "LPDDR4-64B").
	Name string
	// BytesPerCycle is the sustained off-chip bandwidth in bytes per
	// accelerator clock cycle.
	BytesPerCycle int
	// EnergyPerBit is the access energy in picojoules per bit transferred.
	EnergyPerBit float64
}

// The three DRAM configurations of the paper's Section 5.2 study. LPDDR4
// access energy follows the widely used ~4 pJ/bit estimate for mobile DRAM
// in the 40/45 nm-era methodology; HBM2 is roughly 2.5x more energy
// efficient per bit while (here) matching the 64 B/cycle interface.
var (
	LPDDR4x64  = DRAMTech{Name: "LPDDR4-64B", BytesPerCycle: 64, EnergyPerBit: 4.0}
	LPDDR4x128 = DRAMTech{Name: "LPDDR4-128B", BytesPerCycle: 128, EnergyPerBit: 4.0}
	HBM2x64    = DRAMTech{Name: "HBM2-64B", BytesPerCycle: 64, EnergyPerBit: 1.6}
)

// DRAMTechs lists the technologies in the paper's order.
func DRAMTechs() []DRAMTech { return []DRAMTech{LPDDR4x64, LPDDR4x128, HBM2x64} }

// Spec is a complete accelerator architecture description. The memory
// hierarchy is DRAM -> GlobalBuffer -> (spatial PE array) -> RegisterFile ->
// MAC, with the row-stationary dataflow of Eyeriss as the base
// configuration.
type Spec struct {
	// Name labels the design point.
	Name string

	// PEsX and PEsY give the PE-array shape (columns x rows).
	PEsX, PEsY int

	// GlobalBufferBytes is the shared on-chip SRAM capacity in bytes.
	GlobalBufferBytes int

	// RegFileBytesPerPE is the per-PE local storage in bytes (Eyeriss uses a
	// ~0.5 kB scratchpad per PE).
	RegFileBytesPerPE int

	// WordBits is the native datapath width in bits.
	WordBits int

	// ClockHz is the accelerator clock (the paper's roofline uses 100 MHz).
	ClockHz float64

	// DRAM is the off-chip memory technology.
	DRAM DRAMTech
}

// NumPEs returns the total PE count.
func (s *Spec) NumPEs() int { return num.MulInt(s.PEsX, s.PEsY) }

// GlobalBufferBits returns the GLB capacity in bits.
func (s *Spec) GlobalBufferBits() int64 {
	return int64(s.GlobalBufferBytes) * 8
}

// RegFileBits returns the per-PE register-file capacity in bits.
func (s *Spec) RegFileBits() int64 {
	return int64(s.RegFileBytesPerPE) * 8
}

// PeakMACsPerCycle is the compute roof: one MAC per PE per cycle.
func (s *Spec) PeakMACsPerCycle() float64 { return float64(s.NumPEs()) }

// The modelled domain's magnitudes (DESIGN §15): a PE axis is at most
// maxPEAxis, so a divisor scan over one takes at most 2^10 steps, and a
// buffer at most maxBufferBytes.
const (
	maxPEAxis      = 1 << 20
	maxBufferBytes = 1 << 40
)

// Validate reports whether the specification is usable.
func (s *Spec) Validate() error {
	switch {
	case s.PEsX <= 0 || s.PEsY <= 0:
		return fmt.Errorf("arch: %s: PE array must be positive (%dx%d)", s.Name, s.PEsX, s.PEsY)
	case s.PEsX > maxPEAxis || s.PEsY > maxPEAxis:
		return fmt.Errorf("arch: %s: a PE axis exceeds 2^20 (%dx%d)", s.Name, s.PEsX, s.PEsY)
	case s.GlobalBufferBytes <= 0:
		return fmt.Errorf("arch: %s: global buffer must be positive", s.Name)
	case s.RegFileBytesPerPE <= 0:
		return fmt.Errorf("arch: %s: register file must be positive", s.Name)
	case s.GlobalBufferBytes > maxBufferBytes || s.RegFileBytesPerPE > maxBufferBytes:
		return fmt.Errorf("arch: %s: a buffer exceeds 2^40 bytes", s.Name)
	case s.WordBits <= 0:
		return fmt.Errorf("arch: %s: word width must be positive", s.Name)
	case s.ClockHz <= 0:
		return fmt.Errorf("arch: %s: clock must be positive", s.Name)
	case s.DRAM.BytesPerCycle <= 0:
		return fmt.Errorf("arch: %s: DRAM bandwidth must be positive", s.Name)
	}
	return nil
}

// WithPEs returns a copy of the spec with a different PE-array shape. The
// name gains (or replaces) a "-peXxY" token.
func (s Spec) WithPEs(x, y int) Spec {
	s.PEsX, s.PEsY = x, y
	s.Name = withToken(s.Name, "pe", fmt.Sprintf("pe%dx%d", x, y))
	return s
}

// WithGlobalBuffer returns a copy of the spec with a different GLB
// capacity. The name gains (or replaces) a "-glbNkB" token.
func (s Spec) WithGlobalBuffer(bytes int) Spec {
	s.GlobalBufferBytes = bytes
	s.Name = withToken(s.Name, "glb", fmt.Sprintf("glb%dkB", bytes/1024))
	return s
}

// WithDRAM returns a copy of the spec with a different DRAM technology.
func (s Spec) WithDRAM(t DRAMTech) Spec {
	s.DRAM = t
	return s
}

// withToken replaces the dash-separated token starting with prefix, or
// appends the token if absent, so chained modifiers compose.
func withToken(name, prefix, token string) string {
	parts := strings.Split(name, "-")
	out := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	return strings.Join(append(out, token), "-")
}

// Base returns the paper's base configuration: a row-stationary spatial
// accelerator derived from Eyeriss with 14x12 PEs, a 131 kB global buffer,
// LPDDR4 at 64 B/cycle and a 100 MHz clock (Sections 5 and 5.1).
func Base() Spec {
	return Spec{
		Name:              "eyeriss",
		PEsX:              14,
		PEsY:              12,
		GlobalBufferBytes: 131 * 1024,
		RegFileBytesPerPE: 512,
		WordBits:          16,
		ClockHz:           100e6,
		DRAM:              LPDDR4x64,
	}
}

// PEConfigs returns the PE-array shapes swept in Figure 14.
func PEConfigs() [][2]int { return [][2]int{{14, 12}, {14, 24}, {28, 24}} }

// BufferConfigs returns the GLB capacities (bytes) swept in Figure 15.
func BufferConfigs() []int { return []int{16 * 1024, 32 * 1024, 131 * 1024} }

// Encode appends the architecture's numerics to a store key. The spec and
// DRAM names are labels and are left out.
func (s *Spec) Encode(e *store.Enc) {
	e.Int(int64(s.PEsX)).Int(int64(s.PEsY)).
		Int(int64(s.GlobalBufferBytes)).Int(int64(s.RegFileBytesPerPE)).
		Int(int64(s.WordBits)).Float(s.ClockHz).
		Int(int64(s.DRAM.BytesPerCycle)).Float(s.DRAM.EnergyPerBit)
}
