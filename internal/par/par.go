// Package par is the one worker pool of the search pipeline. The
// scheduler's per-layer searches, pair-matrix entries and annealing
// segments, and the sweep's design points all fan out through Each, so
// launch order, cancellation, panic recovery and error precedence are
// decided once, here. The mapper search does not fan out. Widths nest once:
// each of a sweep's design-point workers runs its scheduler's fan-outs at
// the sweep's width, so width w runs at most w² workers.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"secureloop/internal/obs"
)

// Each runs fn(i) for every i in [0, n) on min(workers, n) goroutines;
// workers <= 0 means one per CPU. Indices are claimed in ascending order,
// so at width 1 Each is the serial loop. Claiming stops once ctx is done;
// jobs already running finish, and fn is expected to poll ctx itself. A
// panicking job becomes its index's error, and the other jobs still run.
//
// Each returns after every worker has returned: ctx.Err() if ctx is done,
// otherwise the error of the lowest failing index, otherwise nil. Every
// result slot fn writes is written by exactly one job, so callers read
// them after Each without further synchronisation.
func Each(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = obs.Guard(func() error { return fn(i) })
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
