package mapper

import (
	"context"
	"errors"
	"strings"
	"testing"

	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

func TestSearchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := workload.AlexNet().Layer(0)
	out, err := SearchCtx(ctx, baseRequest(l))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), l.Name) {
		t.Errorf("error does not name the layer: %v", err)
	}
	if out != nil {
		t.Errorf("cancelled search returned %d candidates", len(out))
	}
}

// cancelLayer is dimensioned so no other test warms its cache entry: the
// cancelled first call must fail, and the retry must still compute a result
// (a failed search is never memoised).
func cancelLayer() *workload.Layer {
	return &workload.Layer{
		Name: "cancel-probe", C: 13, M: 17, R: 3, S: 3, P: 11, Q: 11,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16,
	}
}

func TestSearchCachedCancelDoesNotPoisonCache(t *testing.T) {
	req := baseRequest(cancelLayer())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchCachedCtx(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("first call: err = %v, want context.Canceled", err)
	}
	// The failed search must not have been stored: the retry recomputes and
	// succeeds.
	out, err := SearchCachedCtx(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("retry returned no candidates")
	}
}

func TestSearchCancelWaiterUnblocks(t *testing.T) {
	// A waiter coalesced onto an in-flight search must honour its own
	// context rather than block until the leader finishes.
	req := baseRequest(cancelLayer())
	req.Layer = &workload.Layer{
		Name: "cancel-waiter", C: 19, M: 23, R: 3, S: 3, P: 13, Q: 13,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16,
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, err := SearchCachedCtx(context.Background(), req); err != nil {
			t.Errorf("leader search failed: %v", err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Whether this call sees the in-flight entry, a finished cache entry, or
	// becomes its own leader is timing-dependent; all paths must return
	// promptly with either a result or ctx.Err().
	if _, err := SearchCachedCtx(ctx, req); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: err = %v, want nil or context.Canceled", err)
	}
	<-leaderDone
}

// panicObserver panics when the search reports its work.
type panicObserver struct{}

func (panicObserver) Observe(e obs.Event) {
	if e.Kind == obs.EventMapperSearch {
		panic("boom")
	}
}

// TestSearchWorkerPanicBecomesError: a panic inside a search, here in the
// observer it reports to, comes back from SearchCtx as an error carrying
// the panic message instead of killing the process.
func TestSearchWorkerPanicBecomesError(t *testing.T) {
	req := baseRequest(workload.AlexNet().Layer(0))
	req.Observe = panicObserver{}
	out, err := SearchCtx(context.Background(), req)
	if err == nil {
		t.Fatal("panicking search did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panic: boom") {
		t.Errorf("error does not carry the panic message: %v", err)
	}
	if out != nil {
		t.Errorf("panicked search returned %d candidates", len(out))
	}
}
