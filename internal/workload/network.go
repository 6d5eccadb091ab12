package workload

import (
	"fmt"

	"secureloop/internal/num"
	"secureloop/internal/store"
)

// Network is an ordered set of layers plus the segment structure SecureLoop
// schedules over. A segment is a maximal chain of layers in which each
// layer's ofmap is consumed directly (after at most on-the-fly
// post-processing such as BatchNorm, ReLU or zero-padding) as the next
// layer's ifmap. Segment boundaries occur where a separate post-processing
// computation (pooling, residual addition) intervenes; such boundaries
// inevitably trigger rehashing (paper Section 4.3), so cross-layer AuthBlock
// optimisation applies only within a segment.
type Network struct {
	Name   string
	Layers []Layer

	// Segments lists layer indices; within a segment, layer Segments[s][i]
	// produces the ifmap of Segments[s][i+1]. Every layer appears in exactly
	// one segment. Singleton segments have no in-segment cross-layer pairs.
	Segments [][]int
}

// Layer returns the i-th layer.
func (n *Network) Layer(i int) *Layer { return &n.Layers[i] }

// NumLayers returns the layer count.
func (n *Network) NumLayers() int { return len(n.Layers) }

// TotalMACs sums MACs over all layers.
func (n *Network) TotalMACs() int64 {
	var t int64
	for i := range n.Layers {
		t += n.Layers[i].MACs()
	}
	return t
}

// CrossLayerPairs returns all (producer, consumer) layer-index pairs that
// share a tensor within a segment: the producer's ofmap is the consumer's
// ifmap with no intervening rehash-forcing operation.
func (n *Network) CrossLayerPairs() [][2]int {
	var pairs [][2]int
	for _, seg := range n.Segments {
		for i := 0; i+1 < len(seg); i++ {
			pairs = append(pairs, [2]int{seg[i], seg[i+1]})
		}
	}
	return pairs
}

// SegmentOf returns the index of the segment containing layer i, and the
// position of the layer within that segment. It returns (-1, -1) if the
// layer is not found.
func (n *Network) SegmentOf(i int) (seg, pos int) {
	for s, layers := range n.Segments {
		for p, li := range layers {
			if li == i {
				return s, p
			}
		}
	}
	return -1, -1
}

// Validate checks every layer, the segment cover, and the in-segment shape
// compatibility (producer ofmap channel/extent must match consumer ifmap).
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("workload: network %s has no layers", n.Name)
	}
	for i := range n.Layers {
		if err := n.Layers[i].Validate(); err != nil {
			return fmt.Errorf("workload: network %s: %w", n.Name, err)
		}
	}
	seen := make([]bool, len(n.Layers))
	for _, seg := range n.Segments {
		if len(seg) == 0 {
			return fmt.Errorf("workload: network %s has an empty segment", n.Name)
		}
		for _, li := range seg {
			if li < 0 || li >= len(n.Layers) {
				return fmt.Errorf("workload: network %s: segment references layer %d out of range", n.Name, li)
			}
			if seen[li] {
				return fmt.Errorf("workload: network %s: layer %d appears in more than one segment", n.Name, li)
			}
			seen[li] = true
		}
		for i := 0; i+1 < len(seg); i++ {
			p, c := &n.Layers[seg[i]], &n.Layers[seg[i+1]]
			if p.M != c.C {
				return fmt.Errorf("workload: network %s: %s ofmap channels (%d) != %s ifmap channels (%d)",
					n.Name, p.Name, p.M, c.Name, c.C)
			}
			// With stride > 1 the output extent floors, so the consumer's
			// implied input extent may undershoot the producer's ofmap by up
			// to stride-1 rows/cols (the trailing rows are simply unread).
			if p.P < c.InH() || p.P >= c.InH()+c.StrideH || p.Q < c.InW() || p.Q >= c.InW()+c.StrideW {
				return fmt.Errorf("workload: network %s: %s ofmap %dx%d incompatible with %s ifmap %dx%d",
					n.Name, p.Name, p.P, p.Q, c.Name, c.InH(), c.InW())
			}
		}
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("workload: network %s: layer %d (%s) is not in any segment", n.Name, i, n.Layers[i].Name)
		}
	}
	return nil
}

// defaultWordBits matches the Eyeriss-class 16-bit fixed-point datapath of
// the paper's base architecture.
const defaultWordBits = 16

func conv(name string, c, m, r, s, p, q, stride, pad int) Layer {
	return Layer{
		Name: name, C: c, M: m, R: r, S: s, P: p, Q: q,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
		N: 1, WordBits: defaultWordBits,
	}
}

func dwconv(name string, c, r, s, p, q, stride, pad int) Layer {
	l := conv(name, c, c, r, s, p, q, stride, pad)
	l.Depthwise = true
	return l
}

// AlexNet returns the first five (convolutional) layers of AlexNet
// (torchvision channel counts), the subset the paper evaluates
// ("we only consider first 5 layers of AlexNet that are convolutional").
// Max-pooling follows conv1, conv2 and conv5, cutting segments there.
func AlexNet() *Network {
	n := &Network{
		Name: "AlexNet",
		Layers: []Layer{
			conv("conv1", 3, 64, 11, 11, 55, 55, 4, 0),
			conv("conv2", 64, 192, 5, 5, 27, 27, 1, 2),
			conv("conv3", 192, 384, 3, 3, 13, 13, 1, 1),
			conv("conv4", 384, 256, 3, 3, 13, 13, 1, 1),
			conv("conv5", 256, 256, 3, 3, 13, 13, 1, 1),
		},
		// Pooling after conv1 and conv2 cuts segments; conv3-5 chain.
		Segments: [][]int{{0}, {1}, {2, 3, 4}},
	}
	return n
}

// ResNet18 returns the 20 convolutional layers plus the final
// fully-connected layer of ResNet-18 for 224x224 inputs. Residual additions
// and the stem max-pool cut segments; downsample (projection shortcut)
// convolutions form singleton segments because their ofmaps feed residual
// adds directly.
func ResNet18() *Network {
	var layers []Layer
	var segments [][]int
	add := func(l Layer) int {
		layers = append(layers, l)
		return len(layers) - 1
	}

	// Stem: 7x7 stride-2 conv followed by 3x3 stride-2 max-pool (cut).
	stem := add(conv("conv1", 3, 64, 7, 7, 112, 112, 2, 3))
	segments = append(segments, []int{stem})

	type stage struct {
		ch, out, stride int
		downsample      bool
	}
	stages := []stage{
		{ch: 64, out: 56, stride: 1, downsample: false},
		{ch: 128, out: 28, stride: 2, downsample: true},
		{ch: 256, out: 14, stride: 2, downsample: true},
		{ch: 512, out: 7, stride: 2, downsample: true},
	}
	inCh := 64
	for si, st := range stages {
		for b := 0; b < 2; b++ {
			stride := 1
			cIn := st.ch
			if b == 0 {
				stride = st.stride
				cIn = inCh
			}
			name := fmt.Sprintf("layer%d.%d", si+1, b)
			a := add(conv(name+".conv1", cIn, st.ch, 3, 3, st.out, st.out, stride, 1))
			c := add(conv(name+".conv2", st.ch, st.ch, 3, 3, st.out, st.out, 1, 1))
			// conv2's ofmap feeds the residual add: cut after it.
			segments = append(segments, []int{a, c})
			if b == 0 && st.downsample {
				d := add(conv(name+".downsample", cIn, st.ch, 1, 1, st.out, st.out, st.stride, 0))
				segments = append(segments, []int{d})
			}
		}
		inCh = st.ch
	}

	// Final classifier as a 1x1 "convolution" over the pooled 1x1 map.
	fc := add(conv("fc", 512, 1000, 1, 1, 1, 1, 1, 0))
	segments = append(segments, []int{fc})

	return &Network{Name: "ResNet18", Layers: layers, Segments: segments}
}

// MobileNetV2 returns the 52 convolutional layers of MobileNetV2 for 224x224
// inputs: the stem conv, 17 inverted-residual blocks (expand 1x1, depthwise
// 3x3, project 1x1; the first block omits the expansion), and the final 1x1
// conv. Blocks whose input and output shapes match (stride 1, equal
// channels) end with a residual addition, cutting the segment; otherwise the
// chain continues into the next block, producing the long segments that make
// cross-layer fine-tuning most valuable on this network (paper Section 5.1).
func MobileNetV2() *Network {
	var layers []Layer
	var segments [][]int
	var chain []int
	add := func(l Layer) int {
		layers = append(layers, l)
		return len(layers) - 1
	}
	cut := func() {
		if len(chain) > 0 {
			segments = append(segments, chain)
			chain = nil
		}
	}

	// Stem.
	chain = append(chain, add(conv("conv0", 3, 32, 3, 3, 112, 112, 2, 1)))

	type blockCfg struct{ t, c, n, s int }
	cfgs := []blockCfg{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	inCh, spatial := 32, 112
	blk := 0
	for _, cfg := range cfgs {
		for r := 0; r < cfg.n; r++ {
			stride := 1
			if r == 0 {
				stride = cfg.s
			}
			outSpatial := spatial
			if stride == 2 {
				outSpatial = spatial / 2
			}
			hidden := num.MulInt(inCh, cfg.t)
			name := fmt.Sprintf("block%d", blk)
			residual := stride == 1 && inCh == cfg.c

			if residual {
				// The block input is also an operand of the trailing
				// residual add, so the chain feeding this block must end
				// before the block starts.
				cut()
			}
			if cfg.t != 1 {
				chain = append(chain, add(conv(name+".expand", inCh, hidden, 1, 1, spatial, spatial, 1, 0)))
			}
			chain = append(chain, add(dwconv(name+".dw", hidden, 3, 3, outSpatial, outSpatial, stride, 1)))
			chain = append(chain, add(conv(name+".project", hidden, cfg.c, 1, 1, outSpatial, outSpatial, 1, 0)))
			if residual {
				// The projection ofmap feeds the residual add.
				cut()
			}
			inCh, spatial = cfg.c, outSpatial
			blk++
		}
	}
	chain = append(chain, add(conv("conv_last", 320, 1280, 1, 1, 7, 7, 1, 0)))
	cut()

	return &Network{Name: "MobileNetV2", Layers: layers, Segments: segments}
}

// VGG16 returns the 13 convolutional layers plus the three classifier
// layers of VGG-16 for 224x224 inputs — an extension beyond the paper's
// three evaluation workloads, useful for stressing the scheduler with very
// large weight tensors. Max-pooling after each block cuts segments.
func VGG16() *Network {
	var layers []Layer
	var segments [][]int
	var chain []int
	add := func(l Layer) {
		layers = append(layers, l)
		chain = append(chain, len(layers)-1)
	}
	cut := func() {
		segments = append(segments, chain)
		chain = nil
	}
	type blk struct{ n, ch, out int }
	in := 3
	spatial := 224
	for bi, b := range []blk{{2, 64, 224}, {2, 128, 112}, {3, 256, 56}, {3, 512, 28}, {3, 512, 14}} {
		spatial = b.out
		for i := 0; i < b.n; i++ {
			c := in
			if i > 0 {
				c = b.ch
			}
			add(conv(fmt.Sprintf("conv%d_%d", bi+1, i+1), c, b.ch, 3, 3, spatial, spatial, 1, 1))
		}
		cut() // max-pool
		in = b.ch
	}
	// Classifier: fc6/fc7/fc8 as 1x1 "convolutions" over pooled features.
	add(conv("fc6", 512*7*7, 4096, 1, 1, 1, 1, 1, 0))
	cut()
	add(conv("fc7", 4096, 4096, 1, 1, 1, 1, 1, 0))
	add(conv("fc8", 4096, 1000, 1, 1, 1, 1, 1, 0))
	cut()
	return &Network{Name: "VGG16", Layers: layers, Segments: segments}
}

// Networks returns the three evaluation workloads of the paper in its order.
func Networks() []*Network {
	return []*Network{AlexNet(), ResNet18(), MobileNetV2()}
}

// ByName returns the named network ("alexnet", "resnet18", "mobilenetv2",
// case-sensitive lower-case) or an error.
func ByName(name string) (*Network, error) {
	switch name {
	case "alexnet":
		return AlexNet(), nil
	case "resnet18":
		return ResNet18(), nil
	case "mobilenetv2":
		return MobileNetV2(), nil
	case "vgg16":
		return VGG16(), nil
	}
	return nil, fmt.Errorf("workload: unknown network %q (want alexnet, resnet18, mobilenetv2 or vgg16)", name)
}

// EncodeShape appends the network's shape identity to a store key: every
// layer shape in order, then the segment structure. The name is a label
// and is left out.
func (n *Network) EncodeShape(e *store.Enc) {
	e.Int(int64(len(n.Layers)))
	for i := range n.Layers {
		n.Layers[i].EncodeShape(e)
	}
	e.Int(int64(len(n.Segments)))
	for _, seg := range n.Segments {
		e.Int(int64(len(seg)))
		for _, li := range seg {
			e.Int(int64(li))
		}
	}
}
