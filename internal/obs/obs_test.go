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
	if _, ok := OrNop(nil).(Nop); !ok {
		t.Fatal("OrNop(nil) is not Nop")
	}
	l := NewLogger(&strings.Builder{})
	if OrNop(l) != Observer(l) {
		t.Fatal("OrNop did not pass through a non-nil observer")
	}
}

// TestLoggerRendersEvents: the -progress renderer emits one line per event
// and thins annealing progress to quartiles.
func TestLoggerRendersEvents(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.StageStart(StageEvent{Stage: StageMapping, Units: 3})
	l.LayerScheduled(LayerEvent{Stage: StageMapping, Index: 0, Name: "conv1", Done: 1, Total: 3})
	for it := 0; it < 1000; it += 64 {
		l.AnnealProgress(AnnealEvent{Tag: 7, Iteration: it, Iterations: 1000, Best: 42})
	}
	l.StageEnd(StageEvent{Stage: StageMapping})
	out := sb.String()
	for _, want := range []string{"step 1 loopnest scheduling] start: 3", "1/3 conv1", "segment@7", "done"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "segment@7"); n > 4 {
		t.Errorf("anneal progress not thinned: %d lines", n)
	}
}

// TestLoggerSkipsWorkCounts: the -progress renderer prints no line for the
// work-count events, which a sweep emits once per search.
func TestLoggerSkipsWorkCounts(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.MapperSearch(MapperSearchEvent{Layer: "conv1", Evaluated: 3})
	l.AuthBlockSearch(AuthBlockSearchEvent{})
	if sb.Len() != 0 {
		t.Errorf("work-count events printed %q", sb.String())
	}
}

// TestTallyCountsWorkEvents: a Tally reached through Multi from concurrent
// emitters folds every work-count event exactly once.
func TestTallyCountsWorkEvents(t *testing.T) {
	var tally Tally
	ob := Multi(Nop{}, &tally)
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ob.MapperSearch(MapperSearchEvent{Evaluated: 3, Pruned: 2, Skipped: 1, WarmSeeds: 1})
				ob.AuthBlockSearch(AuthBlockSearchEvent{})
				ob.StageStart(StageEvent{Stage: StageMapping})
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
