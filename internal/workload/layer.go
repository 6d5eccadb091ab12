// Package workload describes DNN workloads as sequences of convolutional
// (and fully-connected, expressed as 1x1 convolution) layers, together with
// the producer/consumer topology that SecureLoop's cross-layer AuthBlock
// assignment needs.
package workload

import (
	"secureloop/internal/num"
	"secureloop/internal/store"
)

// Layer is one convolutional layer.
//
// A layer follows the paper's seven-dimensional nested-loop nomenclature
// (Section 2.1): an ifmap of shape P' x Q' x C is convolved with M filters of
// shape R x S x C to produce an ofmap of shape P x Q x M, where
//
//	P = (P' - R + 2*pad) / stride + 1
//
// and Q is derived identically. Fully-connected layers set P=Q=R=S=1.
type Layer struct {
	// Name identifies the layer within its network (e.g. "conv2_1a").
	Name string

	// C is the number of input channels.
	C int
	// M is the number of output channels (filters).
	M int
	// R and S are the filter height and width.
	R, S int
	// P and Q are the output feature-map height and width.
	P, Q int
	// StrideH and StrideW are the convolution strides.
	StrideH, StrideW int
	// PadH and PadW are the zero-padding amounts applied to each border of
	// the input feature map.
	PadH, PadW int
	// N is the batch size.
	N int

	// Depthwise marks a depthwise convolution: each output channel m reads
	// only input channel m (C must equal M), and the weight tensor collapses
	// to C x R x S.
	Depthwise bool

	// WordBits is the datatype width in bits for all tensors of this layer.
	WordBits int
}

// Datatype enumerates the three tensors a convolutional layer touches.
type Datatype int

const (
	// Weight is the filter tensor (M x C x R x S, or C x R x S if depthwise).
	Weight Datatype = iota
	// Ifmap is the input feature map (N x C x InH x InW).
	Ifmap
	// Ofmap is the output feature map (N x M x P x Q).
	Ofmap
)

// Datatypes lists all datatypes in canonical order.
var Datatypes = [3]Datatype{Weight, Ifmap, Ofmap}

// String returns the conventional lower-case name of the datatype.
func (d Datatype) String() string {
	switch d {
	case Weight:
		return "weight"
	case Ifmap:
		return "ifmap"
	case Ofmap:
		return "ofmap"
	}
	return "unknown"
}

// InH returns the input feature-map height implied by the output shape,
// filter size, stride and padding (without the padding itself).
func (l *Layer) InH() int { return num.MulInt(l.P-1, l.StrideH) + l.R - 2*l.PadH }

// InW returns the input feature-map width implied by the output shape.
func (l *Layer) InW() int { return num.MulInt(l.Q-1, l.StrideW) + l.S - 2*l.PadW }

// MACs returns the number of multiply-accumulate operations the layer
// performs. Depthwise layers perform C*P*Q*R*S MACs; dense layers
// N*M*C*P*Q*R*S.
func (l *Layer) MACs() int64 {
	macs := int64(l.N) * int64(l.P) * int64(l.Q) * int64(l.R) * int64(l.S) * int64(l.M)
	if !l.Depthwise {
		macs *= int64(l.C)
	}
	return macs
}

// Volume returns the number of elements of the given datatype.
func (l *Layer) Volume(d Datatype) int64 {
	switch d {
	case Weight:
		v := int64(l.M) * int64(l.R) * int64(l.S)
		if !l.Depthwise {
			v *= int64(l.C)
		}
		return v
	case Ifmap:
		return int64(l.N) * int64(l.C) * int64(l.InH()) * int64(l.InW())
	case Ofmap:
		return int64(l.N) * int64(l.M) * int64(l.P) * int64(l.Q)
	}
	return 0
}

// VolumeBits returns the size in bits of the given datatype's tensor.
func (l *Layer) VolumeBits(d Datatype) int64 {
	return l.Volume(d) * int64(l.WordBits)
}

// TotalVolume returns the element count summed over all three datatypes.
func (l *Layer) TotalVolume() int64 {
	return l.Volume(Weight) + l.Volume(Ifmap) + l.Volume(Ofmap)
}

// The modelled domain's magnitudes (DESIGN §15): every layer field is at
// most maxDim, so a divisor scan over one takes at most 2^10 steps, and
// every tensor holds at most maxTensorElems elements.
const (
	maxDim         = 1 << 20
	maxTensorElems = 1 << 32
)

// Validate reports whether the layer dimensions are internally consistent
// and within the modelled domain's magnitudes.
func (l *Layer) Validate() error {
	weightC := l.C
	if l.Depthwise {
		weightC = 1
	}
	switch {
	case l.C <= 0 || l.M <= 0 || l.R <= 0 || l.S <= 0 || l.P <= 0 || l.Q <= 0:
		return &ShapeError{Layer: l.Name, Reason: "all of C,M,R,S,P,Q must be positive"}
	case l.StrideH <= 0 || l.StrideW <= 0:
		return &ShapeError{Layer: l.Name, Reason: "strides must be positive"}
	case l.PadH < 0 || l.PadW < 0:
		return &ShapeError{Layer: l.Name, Reason: "padding must be non-negative"}
	case l.N <= 0:
		return &ShapeError{Layer: l.Name, Reason: "batch size must be positive"}
	case l.WordBits <= 0:
		return &ShapeError{Layer: l.Name, Reason: "word width must be positive"}
	case max(l.C, l.M, l.R, l.S, l.P, l.Q, l.StrideH, l.StrideW, l.PadH, l.PadW, l.N, l.WordBits) > maxDim:
		return &ShapeError{Layer: l.Name, Reason: "a dimension exceeds 2^20"}
	case l.Depthwise && l.C != l.M:
		return &ShapeError{Layer: l.Name, Reason: "depthwise layer requires C == M"}
	case l.InH() <= 0 || l.InW() <= 0:
		return &ShapeError{Layer: l.Name, Reason: "implied input extent is non-positive"}
	case !withinElems(l.M, weightC, l.R, l.S) || !withinElems(l.N, l.C, l.InH(), l.InW()) || !withinElems(l.N, l.M, l.P, l.Q):
		return &ShapeError{Layer: l.Name, Reason: "a tensor exceeds 2^32 elements"}
	}
	return nil
}

// withinElems reports whether the product of the positive dims is at most
// maxTensorElems, dividing instead of multiplying so it cannot overflow.
func withinElems(dims ...int) bool {
	v := int64(1)
	for _, d := range dims {
		if int64(d) > maxTensorElems/v {
			return false
		}
		v *= int64(d)
	}
	return true
}

// ShapeError reports an inconsistent layer specification.
type ShapeError struct {
	Layer  string
	Reason string
}

func (e *ShapeError) Error() string {
	return "workload: layer " + e.Layer + ": " + e.Reason
}

// EncodeShape appends every layer field a schedule depends on to a store
// key, in declaration order. The name is a label and is left out, so every
// key over a layer is shape-keyed and the cache tiers agree on what "the
// same layer" means.
func (l *Layer) EncodeShape(e *store.Enc) {
	e.Int(int64(l.C)).Int(int64(l.M)).Int(int64(l.R)).Int(int64(l.S)).
		Int(int64(l.P)).Int(int64(l.Q)).
		Int(int64(l.StrideH)).Int(int64(l.StrideW)).
		Int(int64(l.PadH)).Int(int64(l.PadW)).Int(int64(l.N)).
		Bool(l.Depthwise).Int(int64(l.WordBits))
}
