package authblock

import (
	"context"
	"fmt"

	"secureloop/internal/obs"
	"secureloop/internal/store"
)

// The persistent tier of the optimal-assignment memo: OptimalStoredCtx
// layers a content-addressed disk store beneath the in-memory memo, so the
// same (producer, consumer, params) search resolves across processes and
// restarts. The key canonically encodes every field of the in-memory
// cacheKey; the value is the full Result.

// optPrefix namespaces authblock records within the shared store.
const optPrefix = "authblock.optimal"

// persistOptimalKey canonically encodes the memo identity.
func persistOptimalKey(k cacheKey) store.Key {
	e := store.NewEnc().String(optPrefix)
	k.p.Encode(e)
	k.c.Encode(e)
	k.par.Encode(e)
	return e.Key()
}

// Encode appends every field of the producer grid to a store key.
func (p ProducerGrid) Encode(e *store.Enc) {
	e.Int(int64(p.C)).Int(int64(p.H)).Int(int64(p.W)).
		Int(int64(p.TileC)).Int(int64(p.TileH)).Int(int64(p.TileW)).
		Int(p.WritesPerTile)
}

// Encode appends every field of the consumer grid to a store key.
func (c ConsumerGrid) Encode(e *store.Enc) {
	e.Int(int64(c.TileC)).
		Int(int64(c.WinH)).Int(int64(c.WinW)).
		Int(int64(c.StepH)).Int(int64(c.StepW)).
		Int(int64(c.OffH)).Int(int64(c.OffW)).
		Int(int64(c.CountC)).Int(int64(c.CountH)).Int(int64(c.CountW)).
		Int(c.FetchesPerTile)
}

// Encode appends the cost-model widths to a store key.
func (par Params) Encode(e *store.Enc) {
	e.Int(int64(par.WordBits)).Int(int64(par.HashBits))
}

// StoredOptimal reports whether the persistent store already holds the
// optimal-assignment record for this exact search — the record
// OptimalStoredCtx would replay instead of searching. A peek only (no
// value read, no hit/miss counted): false when st is nil, and a true can
// still fall back to a full search if the record fails to decode.
func StoredOptimal(st *store.Store, p ProducerGrid, c ConsumerGrid, par Params) bool {
	if st == nil {
		return false
	}
	return st.Has(persistOptimalKey(cacheKey{p: p, c: c, par: par}))
}

func encodeResult(r Result) []byte {
	return store.NewEnc().
		Int(int64(r.Assignment.Orientation)).Int(int64(r.Assignment.U)).
		Int(r.Costs.HashWriteBits).Int(r.Costs.HashReadBits).
		Int(r.Costs.RedundantBits).Int(r.Costs.RehashBits).
		Encoding()
}

func decodeResult(raw []byte) (Result, error) {
	var r Result
	d, err := store.NewDec(raw)
	if err != nil {
		return r, err
	}
	o, err := d.Int()
	if err != nil {
		return r, err
	}
	if o < 0 || o >= int64(NumOrientations) {
		return r, fmt.Errorf("authblock: stored orientation %d out of range", o)
	}
	r.Assignment.Orientation = Orientation(o)
	u, err := d.Int()
	if err != nil {
		return r, err
	}
	if u < 1 {
		return r, fmt.Errorf("authblock: stored block size %d out of range", u)
	}
	r.Assignment.U = int(u)
	for _, dst := range []*int64{
		&r.Costs.HashWriteBits, &r.Costs.HashReadBits,
		&r.Costs.RedundantBits, &r.Costs.RehashBits,
	} {
		if *dst, err = d.Int(); err != nil {
			return r, err
		}
	}
	if err := d.Done(); err != nil {
		return r, err
	}
	return r, nil
}

// OptimalStoredCtx is OptimalCtx with process-wide memoisation and an
// optional persistent tier: on an in-memory miss it consults st
// (read-through) before running the search, and a fresh result is written
// into both tiers. st may be nil. Concurrent identical misses share
// one search and one store lookup. A search interrupted by cancellation is
// never stored, so a cancelled request cannot seed the memo with a partial
// (non-optimal) assignment. Undecodable records are treated as misses,
// never errors. When the search actually runs, ob (nil: none) receives one
// EventAuthBlockSearch event; a memo hit, a wait on another caller's search
// and a store hit report nothing.
func OptimalStoredCtx(ctx context.Context, ob obs.Observer, st *store.Store, p ProducerGrid, c ConsumerGrid, par Params) (Result, error) {
	key := cacheKey{p: p, c: c, par: par}
	return optMemo.Do(ctx, key, func() (Result, error) {
		var pk store.Key
		if st != nil {
			pk = persistOptimalKey(key)
			if raw, ok := st.Get(pk); ok {
				if r, derr := decodeResult(raw); derr == nil {
					return r, nil
				}
			}
		}
		if ob != nil {
			ob.Observe(obs.Event{Kind: obs.EventAuthBlockSearch})
		}
		r, err := OptimalCtx(ctx, p, c, par)
		if err == nil && st != nil {
			st.Put(store.KindAuthBlock, pk, encodeResult(r))
		}
		return r, err
	})
}
