package memo

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func identity(k int) uint64 { return uint64(k) }

// waitFor yields until cond holds: the tests wait on memo counters, which
// move exactly when a caller reaches the state the test needs.
func waitFor(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

func TestDoSingleflight(t *testing.T) {
	m := New[int, string](0, identity)
	const callers = 8
	release := make(chan struct{})
	var computes atomic.Int64
	compute := func() (string, error) {
		computes.Add(1)
		<-release
		return "v", nil
	}
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := m.Do(context.Background(), 1, compute)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	waitFor(func() bool { s := m.Stats(); return s.Misses == 1 && s.Shared == callers-1 })
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1", n)
	}
	for i, v := range got {
		if v != "v" {
			t.Errorf("caller %d got %q", i, v)
		}
	}
	if s := m.Stats(); s != (Stats{Misses: 1, Shared: callers - 1, Stores: 1, Entries: 1}) {
		t.Errorf("stats = %+v", s)
	}
	if v, _ := m.Do(context.Background(), 1, compute); v != "v" || m.Stats().Hits != 1 {
		t.Errorf("sequential repeat: %q, stats %+v", v, m.Stats())
	}
}

// TestDoLeaderCancelledWaiterRetries: a leader that fails with its own
// context must not fail a live waiter, who retries and leads.
func TestDoLeaderCancelledWaiterRetries(t *testing.T) {
	m := New[int, string](0, identity)
	lctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := m.Do(lctx, 1, func() (string, error) {
			<-lctx.Done()
			return "", lctx.Err()
		})
		leaderErr <- err
	}()
	waitFor(func() bool { return m.Stats().Misses == 1 })
	waiterVal := make(chan string, 1)
	go func() {
		v, err := m.Do(context.Background(), 1, func() (string, error) { return "waiter", nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterVal <- v
	}()
	waitFor(func() bool { return m.Stats().Shared == 1 })
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if v := <-waiterVal; v != "waiter" {
		t.Fatalf("waiter got %q, want its own compute's value", v)
	}
	if s := m.Stats(); s.Misses != 2 || s.Stores != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want the waiter to have led the second compute", s)
	}
}

// TestDoWaiterCancelled: a waiter's own context ends its wait, and only
// its wait.
func TestDoWaiterCancelled(t *testing.T) {
	m := New[int, string](0, identity)
	release := make(chan struct{})
	leaderVal := make(chan string, 1)
	go func() {
		v, _ := m.Do(context.Background(), 1, func() (string, error) {
			<-release
			return "leader", nil
		})
		leaderVal <- v
	}()
	waitFor(func() bool { return m.Stats().Misses == 1 })
	wctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := m.Do(wctx, 1, func() (string, error) { return "waiter", nil })
		waiterErr <- err
	}()
	waitFor(func() bool { return m.Stats().Shared == 1 })
	cancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-leaderVal; v != "leader" {
		t.Fatalf("leader got %q", v)
	}
	if v, ok := m.Get(1); !ok || v != "leader" {
		t.Errorf("stored %q %v, want the leader's value", v, ok)
	}
}

// TestDoPanic: a panicking compute re-panics in its leader, stores nothing,
// releases its waiters to retry, and leaves the key usable.
func TestDoPanic(t *testing.T) {
	m := New[int, string](0, identity)
	release := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		_, _ = m.Do(context.Background(), 1, func() (string, error) {
			<-release
			panic("boom")
		})
	}()
	waitFor(func() bool { return m.Stats().Misses == 1 })
	waiterVal := make(chan string, 1)
	go func() {
		v, err := m.Do(context.Background(), 1, func() (string, error) { return "retry", nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterVal <- v
	}()
	waitFor(func() bool { return m.Stats().Shared == 1 })
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want the compute's panic", r)
	}
	if v := <-waiterVal; v != "retry" {
		t.Fatalf("waiter got %q after the leader panicked", v)
	}
	if s := m.Stats(); s.Stores != 1 || s.Entries != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want only the retry stored", s)
	}

	// Alone, a panicking compute stores nothing and the key stays usable.
	func() {
		defer func() {
			if r := recover(); r != "again" {
				t.Errorf("recovered %v", r)
			}
		}()
		_, _ = m.Do(context.Background(), 2, func() (string, error) { panic("again") })
	}()
	if _, ok := m.Get(2); ok {
		t.Fatal("a panicked compute was stored")
	}
	if v, err := m.Do(context.Background(), 2, func() (string, error) { return "ok", nil }); err != nil || v != "ok" {
		t.Fatalf("key unusable after a panic: %q %v", v, err)
	}
}

func TestDoErrorNotStored(t *testing.T) {
	m := New[int, string](0, identity)
	boom := errors.New("boom")
	if _, err := m.Do(context.Background(), 1, func() (string, error) { return "", boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if s := m.Stats(); s.Entries != 0 || s.Stores != 0 {
		t.Fatalf("a failed compute was stored: %+v", s)
	}
}

// TestBoundedFIFO: cap+n distinct keys leave exactly cap stored and n
// evicted, the oldest first.
func TestBoundedFIFO(t *testing.T) {
	const capacity, n = 4 * numShards, 2 * numShards
	m := New[int, int](capacity, identity)
	for k := 0; k < capacity+n; k++ {
		if _, err := m.Do(context.Background(), k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats(); s.Entries != capacity || s.Evictions != n {
		t.Fatalf("stats = %+v, want %d entries and %d evictions", s, capacity, n)
	}
	for k := 0; k < capacity+n; k++ {
		if _, ok := m.Get(k); ok != (k >= n) {
			t.Errorf("key %d stored = %v, want %v", k, ok, k >= n)
		}
	}

	u := New[int, int](0, identity)
	for k := 0; k < capacity+n; k++ {
		u.Set(k, k)
	}
	if s := u.Stats(); s.Entries != capacity+n || s.Evictions != 0 {
		t.Errorf("unbounded stats = %+v", s)
	}
}

func TestSetKeepsFIFOSlot(t *testing.T) {
	m := New[int, string](2*numShards, identity) // two keys per shard
	m.Set(0, "a")
	m.Set(numShards, "b")
	m.Set(0, "c") // overwrite: key 0 stays the shard's oldest
	if v, _ := m.Get(0); v != "c" {
		t.Fatalf("overwritten value = %q", v)
	}
	m.Set(2*numShards, "d")
	if _, ok := m.Get(0); ok {
		t.Error("the overwritten key moved behind a newer key in the FIFO")
	}
	if v, _ := m.Get(numShards); v != "b" {
		t.Errorf("newer key evicted instead: %q", v)
	}
	if s := m.Stats(); s.Stores != 4 || s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReset(t *testing.T) {
	m := New[int, int](numShards, identity) // one key per shard
	for k := 0; k < 3*numShards; k++ {
		m.Set(k, k)
		m.Get(k)
		m.Get(-1)
	}
	m.Reset()
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset = %+v", s)
	}
	for k := 0; k < numShards; k++ {
		m.Set(k, k)
	}
	if s := m.Stats(); s.Entries != numShards || s.Evictions != 0 {
		t.Errorf("refill after reset: %+v", s)
	}
}

// TestConcurrentUse mixes every operation on overlapping keys for the race
// detector.
func TestConcurrentUse(t *testing.T) {
	m := New[int, int](numShards, identity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % (3 * numShards)
				v, err := m.Do(context.Background(), k, func() (int, error) { return k, nil })
				if err != nil || v != k {
					t.Errorf("Do(%d) = %d, %v", k, v, err)
					return
				}
				m.Set(k, k)
				if v, ok := m.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				if i%100 == 0 {
					m.Stats()
					m.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDoHitAllocatesNothing(t *testing.T) {
	m := New[int, []int](0, identity)
	k := 7
	compute := func() ([]int, error) { return []int{k}, nil }
	if _, err := m.Do(context.Background(), k, compute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_, _ = m.Do(context.Background(), k, func() ([]int, error) { return []int{k}, nil })
	})
	if allocs != 0 {
		t.Errorf("hit allocates %.1f times", allocs)
	}
}

func TestNewRejectsUnevenCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a capacity that does not split evenly across the shards")
		}
	}()
	New[int, int](numShards+1, identity)
}

// BenchmarkMemoHit measures the hit path from every GOMAXPROCS goroutine
// at once over 64 keys spread across the shards (the tile-candidate memo's
// steady state).
func BenchmarkMemoHit(b *testing.B) {
	m := New[int, []int](1024, identity)
	for k := 0; k < 64; k++ {
		_, _ = m.Do(context.Background(), k, func() ([]int, error) { return []int{k}, nil })
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			k := i % 64
			_, _ = m.Do(context.Background(), k, func() ([]int, error) { return []int{k}, nil })
		}
	})
}
