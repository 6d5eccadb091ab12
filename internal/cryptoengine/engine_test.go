package cryptoengine

import (
	"math"
	"testing"
)

func TestTable2Specs(t *testing.T) {
	// The Table 2 values are data the rest of the model depends on; pin
	// them.
	p := Pipelined()
	if p.AES.Cycles != 1 || p.GFMult.Cycles != 1 {
		t.Error("pipelined cycles")
	}
	if p.AreaKGates() != 78.8+60.1 {
		t.Errorf("pipelined area = %g", p.AreaKGates())
	}
	par := Parallel()
	if par.AES.Cycles != 11 || par.GFMult.Cycles != 8 {
		t.Error("parallel cycles")
	}
	if par.CyclesPerBlock() != 11 {
		t.Errorf("parallel interval = %d", par.CyclesPerBlock())
	}
	s := Serial()
	if s.CyclesPerBlock() != 336 {
		t.Errorf("serial interval = %d", s.CyclesPerBlock())
	}
	if math.Abs(s.EnergyPerBlockPJ()-(768+345.6)) > 1e-9 {
		t.Errorf("serial energy = %g", s.EnergyPerBlockPJ())
	}
}

func TestSection31AreaClaim(t *testing.T) {
	// Section 3.1: one pipelined AES-GCM engine per datatype costs
	// 416.7 kGates.
	cfg := Config{Engine: Pipelined(), CountPerDatatype: 1}
	if got := cfg.TotalAreaKGates(); math.Abs(got-416.7) > 0.01 {
		t.Errorf("3x pipelined area = %g kGates, want 416.7", got)
	}
}

func TestSection52Equivalence(t *testing.T) {
	// Section 5.2: 30 serial engines have throughput similar to 1 parallel
	// engine at ~10x the area.
	serial := Config{Engine: Serial(), CountPerDatatype: 30}
	parallel := Config{Engine: Parallel(), CountPerDatatype: 1}
	st := serial.DatatypeBytesPerCycle()
	pt := parallel.DatatypeBytesPerCycle()
	if math.Abs(st-pt)/pt > 0.05 {
		t.Errorf("throughputs differ: serial*30=%g, parallel=%g", st, pt)
	}
	ratio := serial.TotalAreaKGates() / parallel.TotalAreaKGates()
	if ratio < 9 || ratio > 11 {
		t.Errorf("area ratio = %g, want ~10x", ratio)
	}
}

func TestEffectiveBandwidth(t *testing.T) {
	// A single parallel engine group is far slower than LPDDR4: crypto
	// limits.
	cfg := Config{Engine: Parallel(), CountPerDatatype: 1}
	eff := cfg.EffectiveBytesPerCycle(64)
	if eff >= 64 {
		t.Errorf("effective bandwidth %g not crypto-limited", eff)
	}
	if want := 3 * 16.0 / 11; math.Abs(eff-want) > 1e-9 {
		t.Errorf("effective = %g, want %g", eff, want)
	}
	// Enough pipelined engines saturate the DRAM instead.
	big := Config{Engine: Pipelined(), CountPerDatatype: 4}
	if eff := big.EffectiveBytesPerCycle(64); eff != 64 {
		t.Errorf("effective = %g, want DRAM-limited 64", eff)
	}
}

func TestCyclesForBytes(t *testing.T) {
	cfg := Config{Engine: Parallel(), CountPerDatatype: 2}
	if got := cfg.CyclesForBytes(0); got != 0 {
		t.Errorf("zero bytes: %d", got)
	}
	// 33 bytes -> 3 blocks -> 2 per engine (ceil) -> 22 cycles.
	if got := cfg.CyclesForBytes(33); got != 22 {
		t.Errorf("33 bytes = %d cycles, want 22", got)
	}
	// Partial blocks round up.
	if got := cfg.CyclesForBytes(1); got != 11 {
		t.Errorf("1 byte = %d cycles, want 11", got)
	}
}

func TestEnergyForBytes(t *testing.T) {
	cfg := Config{Engine: Pipelined(), CountPerDatatype: 1}
	if got := cfg.EnergyForBytesPJ(32); math.Abs(got-2*(165.1+57.7)) > 1e-9 {
		t.Errorf("32 bytes energy = %g", got)
	}
	if cfg.EnergyForBytesPJ(0) != 0 {
		t.Error("zero bytes costs energy")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"pipelined", "parallel", "serial"} {
		e, err := ByName(name)
		if err != nil || e.Name != name {
			t.Errorf("ByName(%q): %v %v", name, e.Name, err)
		}
	}
	if _, err := ByName("quantum"); err == nil {
		t.Error("ByName accepted unknown engine")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Engine: Parallel(), CountPerDatatype: 0}).Validate(); err == nil {
		t.Error("accepted zero count")
	}
	c := Config{Engine: Serial(), CountPerDatatype: 30}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if c.String() != "serial x 30" {
		t.Errorf("String = %q", c.String())
	}
}

func TestFigure13Configs(t *testing.T) {
	cfgs := Figure13Configs()
	if len(cfgs) != 6 {
		t.Fatalf("%d configs, want 6", len(cfgs))
	}
	// Throughput ordering: pipelined x2 is the fastest, parallel x1 slowest.
	if cfgs[0].DatatypeBytesPerCycle() >= cfgs[5].DatatypeBytesPerCycle() {
		t.Error("parallel x1 should be slower than pipelined x2")
	}
}

func TestFigure3CatalogTradeoff(t *testing.T) {
	cat := Figure3Catalog()
	if len(cat) != 10 {
		t.Fatalf("%d catalog entries, want 10", len(cat))
	}
	// The overall trade-off: the largest design is the fastest, the
	// smallest designs are slow.
	var minArea, maxArea CatalogEntry
	minArea, maxArea = cat[0], cat[0]
	for _, e := range cat {
		if e.AreaKGates < minArea.AreaKGates {
			minArea = e
		}
		if e.AreaKGates > maxArea.AreaKGates {
			maxArea = e
		}
	}
	if maxArea.AvgCyclesPerBlock > minArea.AvgCyclesPerBlock {
		t.Errorf("trade-off inverted: %+v vs %+v", minArea, maxArea)
	}
	if maxArea.AvgCyclesPerBlock != 1 {
		t.Errorf("largest design should be fully pipelined, got %g cycles", maxArea.AvgCyclesPerBlock)
	}
}
