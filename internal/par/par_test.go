package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachSerialAtWidthOne(t *testing.T) {
	var got []int
	if err := Each(context.Background(), 1, 50, func(i int) error {
		got = append(got, i) // width 1: no other job runs concurrently
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("ran %d jobs, want 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("job %d ran index %d, want ascending order: %v", i, v, got)
		}
	}
}

func TestEachBoundsInFlight(t *testing.T) {
	for _, w := range []int{2, 3, 8} {
		const n = 64
		var inFlight, peak atomic.Int64
		ran := make([]atomic.Int64, n)
		err := Each(context.Background(), w, n, func(i int) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			ran[i].Add(1)
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(w) {
			t.Errorf("width %d: %d jobs in flight at once", w, p)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("width %d: index %d ran %d times, want 1", w, i, c)
			}
		}
	}
}

func TestEachCancelStopsClaiming(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var claimed []int
		err := Each(ctx, w, 1000, func(i int) error {
			mu.Lock()
			claimed = append(claimed, i)
			mu.Unlock()
			if i == 10 {
				cancel()
			}
			if i > 10 {
				<-ctx.Done() // hold the worker until index 10 has cancelled
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) || err != ctx.Err() {
			t.Fatalf("width %d: err = %v, want ctx.Err()", w, err)
		}
		// Index 10 cancels; each other worker may hold one later index,
		// and no worker claims another once it sees the cancel.
		if max := 10 + w; len(claimed) > max {
			t.Errorf("width %d: %d indices ran after cancel at index 10, want at most %d", w, len(claimed), max)
		}
		for _, i := range claimed {
			if i > 10+w-1 {
				t.Errorf("width %d: index %d claimed after cancellation", w, i)
			}
		}
	}
}

func TestEachCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := Each(ctx, 4, 100, func(int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("pre-cancelled Each ran %d jobs", n)
	}
}

func TestEachPanicBecomesError(t *testing.T) {
	var ran atomic.Int64
	err := Each(context.Background(), 3, 20, func(i int) error {
		ran.Add(1)
		if i == 7 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	if n := ran.Load(); n != 20 {
		t.Errorf("ran %d jobs, want all 20 despite the panic", n)
	}
}

func TestEachLowestFailingIndexWins(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		var ran atomic.Int64
		err := Each(context.Background(), w, 30, func(i int) error {
			ran.Add(1)
			if i == 4 || i == 9 || i == 25 {
				if i == 4 {
					time.Sleep(time.Millisecond) // finish after the later failures
				}
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 4" {
			t.Errorf("width %d: err = %v, want job 4", w, err)
		}
		if n := ran.Load(); n != 30 {
			t.Errorf("width %d: ran %d jobs, want 30: a failure must not stop the others", w, n)
		}
	}
}

func TestEachCancelWinsOverJobErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := Each(ctx, 2, 10, func(i int) error {
		if i == 0 {
			cancel()
		}
		return fmt.Errorf("job %d", i)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled over the job errors", err)
	}
}

func TestEachEdgeCases(t *testing.T) {
	ctx := context.Background()
	if err := Each(ctx, 4, 0, func(int) error { t.Error("job ran for n == 0"); return nil }); err != nil {
		t.Errorf("n == 0: err = %v", err)
	}
	for _, w := range []int{0, -3, 100} {
		var ran atomic.Int64
		if err := Each(ctx, w, 7, func(int) error { ran.Add(1); return nil }); err != nil {
			t.Errorf("workers %d: err = %v", w, err)
		}
		if n := ran.Load(); n != 7 {
			t.Errorf("workers %d: ran %d jobs, want 7", w, n)
		}
	}
}

func TestEachNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for r := 0; r < 20; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		var running atomic.Int64
		_ = Each(ctx, 8, 100, func(i int) error {
			running.Add(1)
			defer running.Add(-1)
			if i == 3 {
				cancel()
			}
			if i%5 == 0 {
				panic("boom")
			}
			return nil
		})
		cancel()
		// Each returns only after every worker has returned.
		if n := running.Load(); n != 0 {
			t.Fatalf("run %d: %d jobs still running after Each returned", r, n)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
