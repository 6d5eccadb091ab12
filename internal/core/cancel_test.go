package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// hookObserver counts EventLayer events and exposes cancellation hooks;
// Observe may be called from concurrent workers.
type hookObserver struct {
	layers       atomic.Int64
	onStageStart func(obs.StageEvent)
	onLayer      func(obs.LayerEvent)
	onAnneal     func(obs.AnnealEvent)
}

func (h *hookObserver) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EventStageStart:
		if h.onStageStart != nil {
			h.onStageStart(*e.Stage)
		}
	case obs.EventLayer:
		h.layers.Add(1)
		if h.onLayer != nil {
			h.onLayer(*e.Layer)
		}
	case obs.EventAnneal:
		if h.onAnneal != nil {
			h.onAnneal(*e.Anneal)
		}
	}
}

func TestScheduleNetworkCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := testScheduler()
	ob := &hookObserver{}
	s.Observe = ob
	res, err := s.ScheduleNetworkCtx(ctx, workload.AlexNet(), CryptOptCross)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), string(obs.StageMapping)) {
		t.Errorf("error does not name the first stage: %v", err)
	}
	if res != nil {
		t.Error("pre-cancelled run returned a result")
	}
	if n := ob.layers.Load(); n != 0 {
		t.Errorf("pre-cancelled run scheduled %d layers", n)
	}
}

func TestScheduleNetworkCancelMidMapping(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := testScheduler()
	ob := &hookObserver{}
	// Cancel as the mapping stage opens, before any worker launches: the
	// fan-out loop must not start a single layer.
	ob.onStageStart = func(e obs.StageEvent) {
		if e.Stage == obs.StageMapping {
			cancel()
		}
	}
	s.Observe = ob
	res, err := s.ScheduleNetworkCtx(ctx, workload.MobileNetV2(), CryptOptCross)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), string(obs.StageMapping)) {
		t.Errorf("error does not name the mapping stage: %v", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
	if n := ob.layers.Load(); n != 0 {
		t.Errorf("%d layers scheduled after cancellation at stage start", n)
	}
}

func TestScheduleNetworkCancelMidAnneal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := testScheduler()
	ob := &hookObserver{}
	ob.onAnneal = func(obs.AnnealEvent) { cancel() }
	s.Observe = ob
	res, err := s.ScheduleNetworkCtx(ctx, workload.MobileNetV2(), CryptOptCross)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), string(obs.StageAnneal)) {
		t.Errorf("error does not name the annealing stage: %v", err)
	}
	if res != nil {
		t.Error("cancelled run returned a result")
	}
}

func TestScheduleNetworkCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		s := testScheduler()
		ob := &hookObserver{}
		// Cancel after the first layer completes: workers are in flight, and
		// every one of them must drain.
		ob.onLayer = func(obs.LayerEvent) { cancel() }
		s.Observe = ob
		if _, err := s.ScheduleNetworkCtx(ctx, workload.AlexNet(), CryptOptCross); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestScheduleNetworkObserverPanicBecomesError(t *testing.T) {
	s := testScheduler()
	ob := &hookObserver{}
	ob.onLayer = func(obs.LayerEvent) { panic("observer exploded") }
	s.Observe = ob
	res, err := s.ScheduleNetworkCtx(context.Background(), workload.AlexNet(), CryptOptCross)
	if err == nil {
		t.Fatal("observer panic did not surface as an error")
	}
	if !strings.Contains(err.Error(), "panic: observer exploded") {
		t.Errorf("error does not carry the panic message: %v", err)
	}
	if res != nil {
		t.Error("panicked run returned a result")
	}
}

// TestScheduleNetworkCancelErrorText pins the error a mid-mapping cancel
// returns: the pool reports the context's error itself, not whichever
// in-flight layer search happened to see the cancel first.
func TestScheduleNetworkCancelErrorText(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mapper.ResetCaches() // cold searches, so the cancel lands mid-search
	s := testScheduler()
	s.MaxParallel = 2
	ob := &hookObserver{}
	ob.onLayer = func(obs.LayerEvent) { cancel() }
	s.Observe = ob
	_, err := s.ScheduleNetworkCtx(ctx, workload.MobileNetV2(), CryptOptCross)
	const want = "core: step 1 loopnest scheduling: context canceled"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
