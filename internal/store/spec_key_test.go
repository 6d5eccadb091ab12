package store_test

// These codec tests draw their field values from the real layer,
// architecture and crypto specs, which encode themselves into store keys;
// an external test package keeps that import from forming a cycle.

import (
	"bytes"
	"math"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// encLayer encodes a layer shape the way the mapper's persistent key does:
// every field that determines the search result, in declaration order.
func encLayer(e *store.Enc, l workload.Layer) *store.Enc {
	return e.Int(int64(l.C)).Int(int64(l.M)).Int(int64(l.R)).Int(int64(l.S)).
		Int(int64(l.P)).Int(int64(l.Q)).Int(int64(l.StrideH)).Int(int64(l.StrideW)).
		Int(int64(l.PadH)).Int(int64(l.PadW)).Int(int64(l.N)).
		Bool(l.Depthwise).Int(int64(l.WordBits))
}

func encArch(e *store.Enc, s arch.Spec) *store.Enc {
	return e.Int(int64(s.PEsX)).Int(int64(s.PEsY)).
		Int(int64(s.GlobalBufferBytes)).Int(int64(s.RegFileBytesPerPE)).
		Int(int64(s.WordBits)).Float(s.ClockHz).
		Int(int64(s.DRAM.BytesPerCycle)).Float(s.DRAM.EnergyPerBit)
}

func TestKeyCodecRoundTripRealSpecs(t *testing.T) {
	layer := workload.AlexNet().Layers[0]
	spec := arch.Base()
	eng := cryptoengine.Parallel()

	build := func() *store.Enc {
		e := store.NewEnc().String("test.request")
		encLayer(e, layer)
		encArch(e, spec)
		return e.Int(int64(eng.AES.Cycles)).Float(eng.AES.EnergyPJ).
			Float(eng.AES.AreaKGates).Int(int64(eng.GFMult.Cycles)).
			Bool(layer.Depthwise).Bytes([]byte{1, 2, 3})
	}
	e1, e2 := build(), build()
	if !bytes.Equal(e1.Encoding(), e2.Encoding()) {
		t.Fatal("encoding is not deterministic across independent encoders")
	}
	if e1.Key() != e2.Key() {
		t.Fatal("keys differ for identical field sequences")
	}

	d, err := store.NewDec(e1.Encoding())
	if err != nil {
		t.Fatal(err)
	}
	if s, err := d.String(); err != nil || s != "test.request" {
		t.Fatalf("prefix = %q, %v", s, err)
	}
	wantInts := []int64{
		int64(layer.C), int64(layer.M), int64(layer.R), int64(layer.S),
		int64(layer.P), int64(layer.Q), int64(layer.StrideH), int64(layer.StrideW),
		int64(layer.PadH), int64(layer.PadW), int64(layer.N),
	}
	for i, want := range wantInts {
		got, err := d.Int()
		if err != nil || got != want {
			t.Fatalf("layer int %d = %d, %v; want %d", i, got, err, want)
		}
	}
	if b, err := d.Bool(); err != nil || b != layer.Depthwise {
		t.Fatalf("depthwise = %v, %v", b, err)
	}
	if v, err := d.Int(); err != nil || v != int64(layer.WordBits) {
		t.Fatalf("wordbits = %d, %v", v, err)
	}
	// Drain the arch + engine fields and confirm completeness.
	readInt := func() error { _, err := d.Int(); return err }
	readFloat := func() error { _, err := d.Float(); return err }
	readBool := func() error { _, err := d.Bool(); return err }
	readBytes := func() error { _, err := d.Bytes(); return err }
	for _, read := range []func() error{readInt, readInt, readInt, readInt, readInt, readFloat, readInt, readFloat,
		readInt, readFloat, readFloat, readInt, readBool, readBytes} {
		if err := read(); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestKeyDistinctPerturbations checks injectivity over real specs: changing
// any single field of the request must change the key.
func TestKeyDistinctPerturbations(t *testing.T) {
	base := workload.ResNet18().Layers[3]
	spec := arch.Base()
	enc := func(l workload.Layer, s arch.Spec, k int) store.Key {
		e := store.NewEnc().String("perturb")
		encLayer(e, l)
		encArch(e, s)
		return e.Int(int64(k)).Key()
	}
	ref := enc(base, spec, 6)
	seen := map[store.Key]string{}
	seen[ref] = "base"

	perturb := []struct {
		name string
		key  store.Key
	}{
		{"C+1", func() store.Key { l := base; l.C++; return enc(l, spec, 6) }()},
		{"M+1", func() store.Key { l := base; l.M++; return enc(l, spec, 6) }()},
		{"P+1", func() store.Key { l := base; l.P++; return enc(l, spec, 6) }()},
		{"Q+1", func() store.Key { l := base; l.Q++; return enc(l, spec, 6) }()},
		{"stride", func() store.Key { l := base; l.StrideH = 2; l.StrideW = 2; return enc(l, spec, 6) }()},
		{"depthwise", func() store.Key { l := base; l.Depthwise = !l.Depthwise; return enc(l, spec, 6) }()},
		{"pesx", func() store.Key { s := spec; s.PEsX++; return enc(base, s, 6) }()},
		{"glb", func() store.Key { s := spec; s.GlobalBufferBytes *= 2; return enc(base, s, 6) }()},
		{"clock", func() store.Key { s := spec; s.ClockHz *= 2; return enc(base, s, 6) }()},
		{"k", enc(base, spec, 7)},
	}
	for _, p := range perturb {
		if prev, dup := seen[p.key]; dup {
			t.Fatalf("perturbation %q collides with %q", p.name, prev)
		}
		seen[p.key] = p.name
	}
}

// FuzzKeyCodec fuzzes the canonical encoder end to end: round-trip
// decoding, determinism across independently built encoders, and
// distinctness (a single perturbed field must change both the encoding
// and the key). The corpus is seeded with field values from the real
// layer/arch/crypto specs the production keys are built from.
func FuzzKeyCodec(f *testing.F) {
	spec := arch.Base()
	for _, eng := range []cryptoengine.EngineArch{
		cryptoengine.Pipelined(), cryptoengine.Parallel(), cryptoengine.Serial(),
	} {
		f.Add(int64(eng.AES.Cycles), int64(eng.GFMult.Cycles), eng.AES.EnergyPJ,
			false, eng.Name, []byte{store.KindAuthBlock}, uint8(1))
	}
	for _, net := range []*workload.Network{workload.AlexNet(), workload.ResNet18()} {
		for _, l := range net.Layers[:3] {
			f.Add(int64(l.C), int64(l.M), spec.ClockHz, l.Depthwise, l.Name,
				[]byte{byte(l.P), byte(l.Q)}, uint8(l.WordBits))
		}
	}
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), math.Inf(1), true, "", []byte(nil), uint8(0))
	f.Add(int64(0), int64(-1), math.NaN(), false, "\x00\xff", []byte{0}, uint8(255))

	f.Fuzz(func(t *testing.T, a, b int64, fl float64, bo bool, s string, raw []byte, n uint8) {
		build := func(a0 int64) *store.Enc {
			return store.NewEnc().Int(a0).Int(b).Float(fl).Bool(bo).String(s).Bytes(raw).Int(int64(n))
		}
		e1, e2 := build(a), build(a)
		if !bytes.Equal(e1.Encoding(), e2.Encoding()) {
			t.Fatal("determinism: independent encoders disagree")
		}
		if e1.Key() != e2.Key() {
			t.Fatal("determinism: keys disagree")
		}

		d, err := store.NewDec(e1.Encoding())
		if err != nil {
			t.Fatal(err)
		}
		ga, err := d.Int()
		if err != nil || ga != a {
			t.Fatalf("Int a: %d, %v", ga, err)
		}
		gb, err := d.Int()
		if err != nil || gb != b {
			t.Fatalf("Int b: %d, %v", gb, err)
		}
		gf, err := d.Float()
		if err != nil || math.Float64bits(gf) != math.Float64bits(fl) {
			t.Fatalf("Float: %v, %v", gf, err)
		}
		gbo, err := d.Bool()
		if err != nil || gbo != bo {
			t.Fatalf("Bool: %v, %v", gbo, err)
		}
		gs, err := d.String()
		if err != nil || gs != s {
			t.Fatalf("String: %q, %v", gs, err)
		}
		gr, err := d.Bytes()
		if err != nil || !bytes.Equal(gr, raw) {
			t.Fatalf("Bytes: %v, %v", gr, err)
		}
		gn, err := d.Int()
		if err != nil || gn != int64(n) {
			t.Fatalf("Int n: %d, %v", gn, err)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("Done: %v", err)
		}

		// Distinctness: perturbing one field changes encoding and key.
		e3 := build(a + 1)
		if bytes.Equal(e1.Encoding(), e3.Encoding()) {
			t.Fatal("distinct inputs share an encoding")
		}
		if e1.Key() == e3.Key() {
			t.Fatal("distinct inputs share a key")
		}
	})
}
