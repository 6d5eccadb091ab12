package mapper

import (
	"fmt"

	"secureloop/internal/mapping"
	"secureloop/internal/store"
)

// The persistent tier: cached searches additionally read through to, and
// write into, a content-addressed disk store (Request.Store). The
// key is the canonical encoding of exactly the fields that form the
// in-memory cacheKey — layer shape (name excluded), array geometry, buffer
// capacities, effective bandwidth, the stored k and the search options —
// so a store hit is admissible wherever an in-memory hit is, across
// processes and restarts.

// persistPrefix namespaces mapper records within the shared store.
const persistPrefix = "mapper.search"

// storekey:exclude workload.Layer.Name results are shape-keyed; the layer name is a label

// persistSearchKey canonically encodes the cached-search identity.
func persistSearchKey(k cacheKey) store.Key {
	e := store.NewEnc().String(persistPrefix)
	k.layer.EncodeShape(e)
	e.Int(int64(k.pesX)).Int(int64(k.pesY)).
		Int(k.glb).Int(k.rf).Float(k.effBW).Int(int64(k.topK))
	k.opt.Encode(e)
	return e.Key()
}

// Encode appends the search options to a store key. Every key whose result
// depends on a mapper search calls it, so the tiers agree on which options
// are "the same search". It encodes the canonical options, so fields the
// mode ignores do not split a key.
func (o Options) Encode(e *store.Enc) {
	o = o.canonical()
	e.Int(int64(o.Mode)).Float(o.Epsilon).Bool(o.DisableWarmStart)
}

// EncodeMapping encodes a complete schedule: every per-level tiling factor
// in canonical (level, dimension) order, then both loop permutations.
func EncodeMapping(e *store.Enc, m *mapping.Mapping) {
	for lv := mapping.Level(0); lv < mapping.NumLevels; lv++ {
		for _, d := range mapping.Dims {
			e.Int(int64(m.Factor(lv, d)))
		}
	}
	encPerm(e, m.PermDRAM)
	encPerm(e, m.PermGLB)
}

// DecodeMapping is the inverse of EncodeMapping; structural errors fail
// the decode (the caller recomputes).
func DecodeMapping(d *store.Dec) (*mapping.Mapping, error) {
	m := mapping.New()
	for lv := mapping.Level(0); lv < mapping.NumLevels; lv++ {
		for _, dim := range mapping.Dims {
			f, err := d.Int()
			if err != nil {
				return nil, err
			}
			if f < 1 || f > 1<<30 {
				return nil, fmt.Errorf("mapper: stored factor %d out of range", f)
			}
			m.SetFactor(lv, dim, int(f))
		}
	}
	var err error
	if m.PermDRAM, err = decPerm(d); err != nil {
		return nil, err
	}
	if m.PermGLB, err = decPerm(d); err != nil {
		return nil, err
	}
	return m, nil
}

// encodeCandidates serialises a top-k result: per candidate the two score
// components plus the complete mapping.
func encodeCandidates(cands []Candidate) []byte {
	e := store.NewEnc().Int(int64(len(cands)))
	for _, c := range cands {
		e.Int(c.Cycles).Int(c.OffchipBits)
		EncodeMapping(e, c.Mapping)
	}
	return e.Encoding()
}

func encPerm(e *store.Enc, perm []mapping.Dim) {
	e.Int(int64(len(perm)))
	for _, d := range perm {
		e.Int(int64(d))
	}
}

// decodeCandidates is the inverse of encodeCandidates. Any structural
// error (truncation, out-of-range dimension, absurd count) fails decoding
// as a whole; the caller treats that as a store miss and recomputes.
func decodeCandidates(raw []byte) ([]Candidate, error) {
	d, err := store.NewDec(raw)
	if err != nil {
		return nil, err
	}
	n, err := d.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<16 {
		return nil, fmt.Errorf("mapper: stored candidate count %d out of range", n)
	}
	out := make([]Candidate, 0, n)
	for i := int64(0); i < n; i++ {
		var c Candidate
		if c.Cycles, err = d.Int(); err != nil {
			return nil, err
		}
		if c.OffchipBits, err = d.Int(); err != nil {
			return nil, err
		}
		if c.Mapping, err = DecodeMapping(d); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

func decPerm(d *store.Dec) ([]mapping.Dim, error) {
	n, err := d.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > int64(mapping.NumDims) {
		return nil, fmt.Errorf("mapper: stored permutation length %d out of range", n)
	}
	perm := make([]mapping.Dim, 0, n)
	for i := int64(0); i < n; i++ {
		v, err := d.Int()
		if err != nil {
			return nil, err
		}
		if v < 0 || v >= int64(mapping.NumDims) {
			return nil, fmt.Errorf("mapper: stored dimension %d out of range", v)
		}
		perm = append(perm, mapping.Dim(v))
	}
	return perm, nil
}
