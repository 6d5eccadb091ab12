// Package memo is the one in-process cache behind the mapper's and the
// AuthBlock search's process-wide memos: a generic map sharded 16 ways by a
// caller-supplied hash, with optional FIFO size bound and singleflight
// computation.
//
// Hits take one shard read lock and one atomic add, so the hottest memo (the
// mapper's tile candidates, millions of lookups per sweep) stays as cheap as
// a hand-rolled map. FIFO eviction, not LRU, keeps hits free of
// access-order writes and makes the eviction order a pure function of the
// insertion order.
package memo

import (
	"context"
	"sync"
	"sync/atomic"
)

// numShards is the fixed shard count: a key lives in shard
// hash(key) % numShards.
const numShards = 16

// Stats are a memo's counters. Entries is a snapshot; the rest count events
// since the last Reset.
type Stats struct {
	// Hits counts lookups answered from a stored value.
	Hits int64
	// Misses counts Do calls that computed (singleflight leaders) and Get
	// calls that found nothing.
	Misses int64
	// Shared counts Do calls that waited on an identical in-flight compute
	// instead of duplicating it.
	Shared int64
	// Stores counts values written: successful computes and Set calls.
	Stores int64
	// Evictions counts keys dropped by the FIFO bound.
	Evictions int64
	// Entries is the number of keys stored now.
	Entries int64
}

// flight is one in-progress compute that identical misses wait on.
type flight[V any] struct {
	done chan struct{}
	// val and ok are written before done closes; ok is false when the
	// compute failed or panicked, and waiters then retry.
	val V
	ok  bool
}

type shard[K comparable, V any] struct {
	mu       sync.RWMutex
	entries  map[K]V          // guarded by mu
	inflight map[K]*flight[V] // guarded by mu
	order    []K              // guarded by mu (FIFO ring of stored keys; bounded memos only)
	oldest   int              // guarded by mu (index of the oldest key in a full ring)
}

// Memo maps K to V. The zero value is not usable; call New.
type Memo[K comparable, V any] struct {
	hash     func(K) uint64
	perShard int // 0: unbounded
	shards   [numShards]shard[K, V]

	hits, misses, shared, stores, evictions atomic.Int64
}

// New returns an empty memo that picks a key's shard with hash. A positive
// capacity bounds the memo to that many keys, split evenly across the
// 16 shards, evicting each shard's oldest key first; it must be a multiple
// of 16. Zero means unbounded.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Memo[K, V] {
	if capacity < 0 || capacity%numShards != 0 {
		panic("memo: capacity must be a non-negative multiple of the shard count, 16")
	}
	return &Memo[K, V]{hash: hash, perShard: capacity / numShards}
}

func (m *Memo[K, V]) shard(k K) *shard[K, V] {
	return &m.shards[m.hash(k)%numShards]
}

// Do returns the value stored under k, or runs compute to produce it.
// Concurrent misses on one key share a single compute: the first caller
// leads, the rest wait. A waiter's ctx ends only its own wait. A compute
// that fails or panics is never stored and always releases its waiters, who
// retry (one of them leads next); the leader gets the compute's error back,
// or its panic re-raised.
func (m *Memo[K, V]) Do(ctx context.Context, k K, compute func() (V, error)) (V, error) {
	sh := m.shard(k)
	sh.mu.RLock()
	v, ok := sh.entries[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return v, nil
	}
	for {
		sh.mu.Lock()
		if v, ok := sh.entries[k]; ok {
			sh.mu.Unlock()
			m.hits.Add(1)
			return v, nil
		}
		if fl, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			m.shared.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
			if fl.ok {
				return fl.val, nil
			}
			continue
		}
		fl := &flight[V]{done: make(chan struct{})}
		if sh.inflight == nil {
			sh.inflight = map[K]*flight[V]{}
		}
		sh.inflight[k] = fl
		sh.mu.Unlock()
		m.misses.Add(1)
		return m.lead(sh, k, fl, compute)
	}
}

// lead runs compute for the flight's waiters. The deferred release runs
// on return and on panic alike, so a flight never outlives its leader.
func (m *Memo[K, V]) lead(sh *shard[K, V], k K, fl *flight[V], compute func() (V, error)) (V, error) {
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, k)
		sh.mu.Unlock()
		close(fl.done)
	}()
	v, err := compute()
	if err != nil {
		return v, err
	}
	m.put(sh, k, v)
	fl.val, fl.ok = v, true
	return v, nil
}

// Get returns the value stored under k, counting a hit or a miss.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	sh := m.shard(k)
	sh.mu.RLock()
	v, ok := sh.entries[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Set stores v under k. Overwriting a stored key keeps its FIFO slot.
func (m *Memo[K, V]) Set(k K, v V) {
	m.put(m.shard(k), k, v)
}

// put stores v under k, evicting the shard's oldest key when a new key
// meets a full bounded shard.
func (m *Memo[K, V]) put(sh *shard[K, V], k K, v V) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.entries == nil {
		sh.entries = map[K]V{}
	}
	if _, ok := sh.entries[k]; !ok && m.perShard > 0 {
		if len(sh.order) < m.perShard {
			sh.order = append(sh.order, k)
		} else {
			delete(sh.entries, sh.order[sh.oldest])
			sh.order[sh.oldest] = k
			sh.oldest = (sh.oldest + 1) % m.perShard
			m.evictions.Add(1)
		}
	}
	sh.entries[k] = v
	m.stores.Add(1)
}

// Stats snapshots the counters.
func (m *Memo[K, V]) Stats() Stats {
	s := Stats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Shared:    m.shared.Load(),
		Stores:    m.stores.Load(),
		Evictions: m.evictions.Load(),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		s.Entries += int64(len(sh.entries))
		sh.mu.RUnlock()
	}
	return s
}

// Reset drops every stored value and zeroes the counters. Computes in
// flight are left to finish and store their values.
func (m *Memo[K, V]) Reset() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.entries, sh.order, sh.oldest = nil, nil, 0
		sh.mu.Unlock()
	}
	m.hits.Store(0)
	m.misses.Store(0)
	m.shared.Store(0)
	m.stores.Store(0)
	m.evictions.Store(0)
}

// Hash folds vals into a word-wise FNV-1a hash: a shard hash for keys made
// of integer fields.
func Hash(vals ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h ^= v
		h *= 1099511628211
	}
	return h
}
