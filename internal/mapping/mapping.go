package mapping

import (
	"fmt"
	"strings"

	"secureloop/internal/num"
	"secureloop/internal/workload"
)

// Level identifies a storage level of the modeled hierarchy, innermost
// first. SpatialX and SpatialY are not storage but the spatial spreading of
// loops across the PE array columns and rows.
type Level int

const (
	// RF is the per-PE register file (innermost temporal loops).
	RF Level = iota
	// SpatialX spreads loops across PE-array columns.
	SpatialX
	// SpatialY spreads loops across PE-array rows.
	SpatialY
	// GLB is the shared global buffer (middle temporal loops).
	GLB
	// DRAM is off-chip memory (outermost temporal loops).
	DRAM

	// NumLevels is the level count.
	NumLevels
)

var levelNames = [NumLevels]string{"RF", "SpatialX", "SpatialY", "GLB", "DRAM"}

// String returns the level name.
func (l Level) String() string {
	if l < 0 || l >= NumLevels {
		return "?"
	}
	return levelNames[l]
}

// Factors holds one tiling factor per dimension.
type Factors [NumDims]int

// normalized returns the factors with zeros replaced by ones.
func (f Factors) normalized() Factors {
	for i, v := range f {
		if v <= 0 {
			f[i] = 1
		}
	}
	return f
}

// Mapping is a complete schedule of one layer: per-level tiling factors and
// the temporal loop permutations at the two levels whose ordering changes
// off-chip and on-chip reuse. Loop bounds that a level does not tile have
// factor 1. Factor products per dimension must cover the layer bound
// (imperfect factorizations round the outermost count up, modelling the
// padding a real mapper applies).
//
// The loopnest reads, outermost to innermost:
//
//	for (PermDRAM order, bounds Factor(DRAM, d))      — DRAM-resident loops
//	  for (PermGLB order, bounds Factor(GLB, d))      — GLB-resident loops
//	    par-for (bounds Factor(SpatialY/X, d))         — PE array
//	      for (canonical order, bounds Factor(RF, d)) — per-PE loops
//	        MAC
type Mapping struct {
	factors [NumLevels]Factors

	// PermDRAM orders the DRAM-level temporal loops, outermost first. Only
	// dimensions with factor > 1 matter; others may be omitted.
	PermDRAM []Dim
	// PermGLB orders the GLB-level temporal loops, outermost first.
	PermGLB []Dim
}

// New returns a mapping with all factors 1 and default permutations.
func New() *Mapping {
	m := &Mapping{}
	for l := Level(0); l < NumLevels; l++ {
		for d := range m.factors[l] {
			m.factors[l][d] = 1
		}
	}
	m.PermDRAM = append([]Dim(nil), Dims[:]...)
	m.PermGLB = append([]Dim(nil), Dims[:]...)
	return m
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	c := *m
	c.PermDRAM = append([]Dim(nil), m.PermDRAM...)
	c.PermGLB = append([]Dim(nil), m.PermGLB...)
	return &c
}

// Factor returns the tiling factor of dimension d at level l.
func (m *Mapping) Factor(l Level, d Dim) int {
	f := m.factors[l][d]
	if f <= 0 {
		return 1
	}
	return f
}

// SetFactor sets the tiling factor of dimension d at level l.
func (m *Mapping) SetFactor(l Level, d Dim, v int) {
	if v <= 0 {
		v = 1
	}
	m.factors[l][d] = v
}

// TileDim returns the number of iterations of dimension d covered by one
// tile at level l, i.e. the product of factors at l and below.
func (m *Mapping) TileDim(l Level, d Dim) int {
	t := 1
	for lv := Level(0); lv <= l; lv++ {
		t *= m.Factor(lv, d)
	}
	return t
}

// OuterCount returns how many tiles of dimension d the levels above l
// iterate over, using ceiling division against the layer bound (imperfect
// factorization support).
func (m *Mapping) OuterCount(layer *workload.Layer, l Level, d Dim) int {
	t := m.TileDim(l, d)
	b := Bound(layer, d)
	if t >= b {
		return 1
	}
	return num.CeilDiv(b, t)
}

// PaddedBound returns the effective (possibly padded) loop bound of
// dimension d: the factor product across all levels, at least the layer
// bound.
func (m *Mapping) PaddedBound(layer *workload.Layer, d Dim) int {
	p := 1
	for l := Level(0); l < NumLevels; l++ {
		p *= m.Factor(l, d)
	}
	if b := Bound(layer, d); p < b {
		return b
	}
	return p
}

// SpatialPEs returns the number of PE columns and rows the mapping uses.
func (m *Mapping) SpatialPEs() (x, y int) {
	x, y = 1, 1
	for d := Dim(0); d < NumDims; d++ {
		x *= m.Factor(SpatialX, d)
		y *= m.Factor(SpatialY, d)
	}
	return x, y
}

// ActivePEs returns the number of PEs doing useful work.
func (m *Mapping) ActivePEs() int {
	x, y := m.SpatialPEs()
	return num.MulInt(x, y)
}

// TemporalIterations returns the number of sequential MAC steps: the product
// of all temporal factors (RF, GLB, DRAM) over all dimensions, using padded
// bounds so partial tiles cost full iterations. All products run through the
// checked int64 helpers: factor products across dimensions can exceed the
// 32-bit int range long before the model itself is out of domain.
func (m *Mapping) TemporalIterations(layer *workload.Layer) int64 {
	iters := int64(1)
	for d := Dim(0); d < NumDims; d++ {
		perStep := num.MulInt64(int64(m.Factor(RF, d)), int64(m.Factor(GLB, d)))
		spatial := num.MulInt64(int64(m.Factor(SpatialX, d)), int64(m.Factor(SpatialY, d)))
		// DRAM-level count via ceiling so padded bounds are honoured.
		tile := num.MulInt64(perStep, spatial)
		b := int64(Bound(layer, d))
		outer := int64(1)
		if tile < b {
			outer = num.CeilDiv64(b, tile)
		}
		iters = num.MulInt64(iters, num.MulInt64(perStep, outer))
	}
	return iters
}

// tileElems returns the element count of datatype dt's tile at level l,
// accounting for the ifmap sliding window (halo) along P/Q.
func (m *Mapping) tileElems(layer *workload.Layer, l Level, dt workload.Datatype) int64 {
	elems := int64(1)
	switch dt {
	case workload.Weight:
		for _, d := range []Dim{DimM, DimC, DimR, DimS} {
			if Relevant(layer, dt, d) {
				elems = num.MulInt64(elems, int64(min(m.TileDim(l, d), Bound(layer, d))))
			}
		}
	case workload.Ofmap:
		for _, d := range []Dim{DimM, DimP, DimQ} {
			elems = num.MulInt64(elems, int64(min(m.TileDim(l, d), Bound(layer, d))))
		}
	case workload.Ifmap:
		// Channels: C for dense, M for depthwise.
		ch := DimC
		if layer.Depthwise {
			ch = DimM
		}
		elems = num.MulInt64(elems, int64(min(m.TileDim(l, ch), Bound(layer, ch))))
		// Sliding window: covering Pt outputs with Rt filter rows needs
		// (Pt-1)*stride + Rt input rows. The halo products are widened to
		// int64 before multiplying so large tiles never overflow 32-bit int.
		pt := min(m.TileDim(l, DimP), layer.P)
		rt := min(m.TileDim(l, DimR), layer.R)
		qt := min(m.TileDim(l, DimQ), layer.Q)
		st := min(m.TileDim(l, DimS), layer.S)
		h := num.MulInt64(int64(pt-1), int64(layer.StrideH)) + int64(rt)
		w := num.MulInt64(int64(qt-1), int64(layer.StrideW)) + int64(st)
		elems = num.MulInt64(elems, num.MulInt64(h, w))
	}
	return elems
}

// GLBTileElems returns the element count of datatype dt's GLB-resident tile.
func (m *Mapping) GLBTileElems(layer *workload.Layer, dt workload.Datatype) int64 {
	return m.tileElems(layer, GLB, dt)
}

// RFTileElems returns the element count of datatype dt's per-PE tile.
func (m *Mapping) RFTileElems(layer *workload.Layer, dt workload.Datatype) int64 {
	return m.tileElems(layer, RF, dt)
}

// GLBBitsUsed returns the GLB occupancy in bits with double buffering (two
// live tiles per datatype, the pipelining assumption of Section 4.1).
func (m *Mapping) GLBBitsUsed(layer *workload.Layer) int64 {
	var bits int64
	for _, dt := range workload.Datatypes {
		bits += 2 * m.GLBTileElems(layer, dt) * int64(layer.WordBits)
	}
	return bits
}

// RFBitsUsed returns the per-PE register-file occupancy in bits.
func (m *Mapping) RFBitsUsed(layer *workload.Layer) int64 {
	var bits int64
	for _, dt := range workload.Datatypes {
		bits += m.RFTileElems(layer, dt) * int64(layer.WordBits)
	}
	return bits
}

// Validate checks structural invariants of the mapping against a layer and
// the PE-array shape: spatial factors must fit the array, every factor must
// be positive, permutations must be permutations of the dims, and R/S must
// not be tiled at the DRAM level (filters stay on-chip once fetched; this
// keeps the ifmap halo geometry well-defined, see DESIGN.md).
func (m *Mapping) Validate(layer *workload.Layer, pesX, pesY int) error {
	x, y := m.SpatialPEs()
	if x > pesX || y > pesY {
		return fmt.Errorf("mapping: spatial %dx%d exceeds PE array %dx%d", x, y, pesX, pesY)
	}
	for l := Level(0); l < NumLevels; l++ {
		for d := Dim(0); d < NumDims; d++ {
			if m.factors[l][d] < 0 {
				return fmt.Errorf("mapping: negative factor at %v/%v", l, d)
			}
		}
	}
	for _, d := range []Dim{DimR, DimS} {
		if m.OuterCount(layer, GLB, d) > 1 {
			return fmt.Errorf("mapping: dimension %v tiled at DRAM level", d)
		}
	}
	if err := checkPerm(m.PermDRAM); err != nil {
		return fmt.Errorf("mapping: PermDRAM: %w", err)
	}
	if err := checkPerm(m.PermGLB); err != nil {
		return fmt.Errorf("mapping: PermGLB: %w", err)
	}
	for d := Dim(0); d < NumDims; d++ {
		if m.PaddedBound(layer, d) < Bound(layer, d) {
			return fmt.Errorf("mapping: dimension %v under-covered (%d < %d)",
				d, m.PaddedBound(layer, d), Bound(layer, d))
		}
	}
	return nil
}

func checkPerm(p []Dim) error {
	var seen [NumDims]bool
	for _, d := range p {
		if d < 0 || d >= NumDims {
			return fmt.Errorf("dimension %d out of range", int(d))
		}
		if seen[d] {
			return fmt.Errorf("dimension %v repeated", d)
		}
		seen[d] = true
	}
	return nil
}

// String renders the loopnest compactly, e.g.
// "DRAM[M:4 P:2 | M P C Q R S] GLB[C:8 | ...] spX[Q:13] spY[M:12] RF[C:4]".
func (m *Mapping) String() string {
	var b strings.Builder
	writeLevel := func(name string, l Level, perm []Dim) {
		b.WriteString(name)
		b.WriteByte('[')
		first := true
		for _, d := range Dims {
			if f := m.Factor(l, d); f > 1 {
				if !first {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%v:%d", d, f)
				first = false
			}
		}
		if perm != nil {
			b.WriteString(" |")
			for _, d := range perm {
				if m.Factor(l, d) > 1 {
					fmt.Fprintf(&b, " %v", d)
				}
			}
		}
		b.WriteString("] ")
	}
	writeLevel("DRAM", DRAM, m.PermDRAM)
	writeLevel("GLB", GLB, m.PermGLB)
	writeLevel("spX", SpatialX, nil)
	writeLevel("spY", SpatialY, nil)
	writeLevel("RF", RF, nil)
	return strings.TrimSpace(b.String())
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
