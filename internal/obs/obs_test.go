package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestGuardRecoversPanic: a panicking worker body becomes an error, not a
// process kill.
func TestGuardRecoversPanic(t *testing.T) {
	err := Guard(func() error { panic("num: MulInt overflow") })
	if err == nil || !strings.Contains(err.Error(), "MulInt overflow") {
		t.Fatalf("Guard did not surface the panic: %v", err)
	}
}

// TestGuardPassesError: Guard must not mask a returned error.
func TestGuardPassesError(t *testing.T) {
	want := errors.New("boom")
	if err := Guard(func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("Guard error = %v, want %v", err, want)
	}
}

// TestCapturePanicKeepsExistingError: a panic during unwinding must not
// overwrite an error already decided.
func TestCapturePanicKeepsExistingError(t *testing.T) {
	want := errors.New("first")
	err := func() (err error) {
		defer CapturePanic(&err)
		err = want
		panic("second")
	}()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want the pre-panic error", err)
	}
}

// TestOrNop: nil becomes the no-op observer; non-nil passes through.
func TestOrNop(t *testing.T) {
	if _, ok := OrNop(nil).(nop); !ok {
		t.Fatal("OrNop(nil) is not the no-op observer")
	}
	l := NewLogger(&strings.Builder{})
	if OrNop(l) != Observer(l) {
		t.Fatal("OrNop did not pass through a non-nil observer")
	}
}

// TestLoggerRendersEvents: the -progress renderer emits one line per event
// and thins annealing progress to quartiles, and a later annealing run of
// the same segment tag prints its own quartiles again.
func TestLoggerRendersEvents(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.Observe(Event{Kind: EventStageStart, Stage: &StageEvent{Stage: StageMapping, Units: 3}})
	l.Observe(Event{Kind: EventLayer, Layer: &LayerEvent{Stage: StageMapping, Index: 0, Name: "conv1", Done: 1, Total: 3}})
	// anneal emits what anneal.MinimizeCtx emits for a 1000-iteration run:
	// one event per 64-move chunk, then the final one.
	anneal := func() {
		for it := 0; it < 1000; it += 64 {
			l.Observe(Event{Kind: EventAnneal, Anneal: &AnnealEvent{Tag: 7, Iteration: it, Iterations: 1000, Best: 42}})
		}
		l.Observe(Event{Kind: EventAnneal, Anneal: &AnnealEvent{Tag: 7, Iteration: 1000, Iterations: 1000, Best: 42}})
	}
	anneal()
	l.Observe(Event{Kind: EventStageEnd, Stage: &StageEvent{Stage: StageMapping}})
	out := sb.String()
	for _, want := range []string{"step 1 loopnest scheduling] start: 3", "1/3 conv1", "segment@7", "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Quartiles 0 to 4: five lines per run.
	if n := strings.Count(out, "segment@7"); n != 5 {
		t.Errorf("first run printed %d anneal lines, want 5 (one per quartile):\n%s", n, out)
	}
	anneal()
	if n := strings.Count(sb.String(), "segment@7"); n != 10 {
		t.Errorf("two runs of one tag printed %d anneal lines, want 10:\n%s", n, sb.String())
	}
}

// TestLoggerSkipsWorkCounts: the -progress renderer prints no line for the
// work-count events, which a sweep emits once per search.
func TestLoggerSkipsWorkCounts(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.Observe(Event{Kind: EventMapperSearch, Mapper: &MapperSearchEvent{Layer: "conv1", Evaluated: 3}})
	l.Observe(Event{Kind: EventAuthBlockSearch})
	if sb.Len() != 0 {
		t.Errorf("work-count events printed %q", sb.String())
	}
}

// TestTallyCountsWorkEvents: a Tally reached through Multi from concurrent
// emitters folds every work-count event exactly once.
func TestTallyCountsWorkEvents(t *testing.T) {
	var tally Tally
	ob := Multi(NewFanout(), &tally)
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ob.Observe(Event{Kind: EventMapperSearch, Mapper: &MapperSearchEvent{Evaluated: 3, Pruned: 2, Skipped: 1, WarmSeeds: 1}})
				ob.Observe(Event{Kind: EventAuthBlockSearch})
				ob.Observe(Event{Kind: EventStageStart, Stage: &StageEvent{Stage: StageMapping}})
			}
		}()
	}
	wg.Wait()
	const n = workers * each
	want := Counts{MapperSearches: n, Evaluated: 3 * n, Pruned: 2 * n, Skipped: n, WarmSeeds: n, AuthBlockSearches: n}
	if got := tally.Counts(); got != want {
		t.Errorf("tally = %+v, want %+v", got, want)
	}
	if got := want.Add(want); got.AuthBlockSearches != 2*n || got.Evaluated != 6*n {
		t.Errorf("Counts.Add = %+v", got)
	}
}
