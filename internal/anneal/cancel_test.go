package anneal

import (
	"context"
	"errors"
	"testing"

	"secureloop/internal/obs"
)

// cancelOnProgress cancels the run's context at the first EventAnneal
// event, exercising the chunk-boundary poll.
type cancelOnProgress struct {
	cancel context.CancelFunc
	events int
}

func (c *cancelOnProgress) Observe(e obs.Event) {
	if e.Kind == obs.EventAnneal {
		c.events++
		c.cancel()
	}
}

func TestMinimizeCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &quadProblem{target: []int{3, 1, 4}, k: 5}
	_, err := MinimizeCtx(ctx, p, Options{Iterations: 1000, TInit: 0.5, TFinal: 1e-4, Seed: 1}, nil, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p.calls != 0 {
		t.Errorf("pre-cancelled run evaluated the cost %d times", p.calls)
	}
}

func TestMinimizeCancelMidRunKeepsPartialBest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ob := &cancelOnProgress{cancel: cancel}
	p := &quadProblem{target: []int{3, 1, 4, 1, 5, 2}, k: 6}
	res, err := MinimizeCtx(ctx, p, Options{Iterations: 1 << 20, TInit: 0.5, TFinal: 1e-4, Seed: 1}, ob, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ob.events == 0 {
		t.Fatal("no progress events before cancellation")
	}
	// The cancellation poll runs once per chunk: the run must stop within
	// one chunk of the cancelling event, far short of the full budget.
	if p.calls > 3*moveChunk {
		t.Errorf("run kept going for %d cost calls after cancellation", p.calls)
	}
	// The partial best is still a valid result.
	if len(res.Choices) != p.NumLayers() {
		t.Errorf("partial result has %d choices, want %d", len(res.Choices), p.NumLayers())
	}
	if res.Cost > res.InitialCost {
		t.Errorf("partial best %g worse than initial %g", res.Cost, res.InitialCost)
	}
}
