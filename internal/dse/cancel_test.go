package dse

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// sweepObserver counts completed design points and can cancel at sweep
// start; Observe is called from concurrent workers.
type sweepObserver struct {
	points       atomic.Int64
	onStageStart func(obs.StageEvent)
}

func (s *sweepObserver) Observe(e obs.Event) {
	switch e.Kind {
	case obs.EventStageStart:
		if s.onStageStart != nil {
			s.onStageStart(*e.Stage)
		}
	case obs.EventLayer:
		s.points.Add(1)
	}
}

func cancelSweepSpace() ([]arch.Spec, []cryptoengine.Config) {
	base := arch.Base()
	specs := []arch.Spec{base, base.WithPEs(14, 24)}
	cryptos := []cryptoengine.Config{{Engine: cryptoengine.Parallel(), CountPerDatatype: 1}}
	return specs, cryptos
}

func TestSweepCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs, cryptos := cancelSweepSpace()
	ob := &sweepObserver{}
	res, err := Sweep(ctx, workload.AlexNet(), specs, cryptos, core.CryptOptCross,
		Options{AnnealIterations: 20, Observe: ob})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), string(obs.StageSweep)) {
		t.Errorf("error does not name the sweep stage: %v", err)
	}
	if res.Points != nil {
		t.Errorf("pre-cancelled sweep returned %d points", len(res.Points))
	}
	if n := ob.points.Load(); n != 0 {
		t.Errorf("pre-cancelled sweep evaluated %d design points", n)
	}
}

func TestSweepCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs, cryptos := cancelSweepSpace()
	ob := &sweepObserver{}
	// Cancel as the sweep opens: the launch loop must not start a single
	// design point.
	ob.onStageStart = func(e obs.StageEvent) {
		if e.Stage == obs.StageSweep {
			cancel()
		}
	}
	res, err := Sweep(ctx, workload.AlexNet(), specs, cryptos, core.CryptOptCross,
		Options{AnnealIterations: 20, Observe: ob})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Points != nil {
		t.Error("cancelled sweep returned points")
	}
	if n := ob.points.Load(); n != 0 {
		t.Errorf("%d design points completed after cancellation at sweep start", n)
	}
}

// TestSweepCancelDuringPrepass: a pruned sweep cancelled while its bound
// pre-pass runs stops the pre-pass at the next spec and evaluates no
// point. The pre-pass never completes, so the sweep's own accounting
// reports no bounded point and no evaluation.
func TestSweepCancelDuringPrepass(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	specs, cryptos := cancelSweepSpace()
	ob := &sweepObserver{}
	// The sweep's stage_start event fires immediately before the pre-pass.
	ob.onStageStart = func(e obs.StageEvent) {
		if e.Stage == obs.StageSweep {
			cancel()
		}
	}
	res, err := Sweep(ctx, workload.AlexNet(), specs, cryptos, core.CryptOptCross,
		Options{AnnealIterations: 20, Observe: ob, Prune: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), string(obs.StageSweep)) {
		t.Errorf("error does not name the sweep stage: %v", err)
	}
	if res.Points != nil || res.Front != nil {
		t.Error("cancelled sweep returned points")
	}
	if n := ob.points.Load(); n != 0 {
		t.Errorf("%d design points evaluated after cancellation in the pre-pass", n)
	}
	if res.Stats.Bounded != 0 || res.Stats.FullEvals != 0 {
		t.Errorf("pre-pass ran to completion despite cancellation: %+v", res.Stats)
	}
}

// TestEvaluateCancelledBeforeStart: a single design-point evaluation — the
// unsecure baseline and the secure schedule — honours a pre-cancelled
// context.
func TestEvaluateCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	crypto := cryptoengine.Config{Engine: cryptoengine.Parallel(), CountPerDatatype: 1}
	if _, err := unsecureCycles(ctx, workload.AlexNet(), arch.Base(), crypto, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("baseline err = %v, want context.Canceled", err)
	}
	_, err := evaluateWithBaseline(ctx, workload.AlexNet(), arch.Base(), crypto, core.CryptOptCross, 1, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluation err = %v, want context.Canceled", err)
	}
}
