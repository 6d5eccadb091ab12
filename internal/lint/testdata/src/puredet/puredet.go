// Package puredet is the golden fixture for the puredet check: a cached
// entry point (CachedEntry, seeded in the check's table) reaching
// determinism violations and process-wide counters through static calls, a
// function-typed field, and an interface method set — plus unreachable and
// allowlisted functions that must stay clean, and a suppressed case.
package puredet

import (
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// request carries the cached request's own seed: randomness derived from it
// is deterministic per request and allowed.
type request struct {
	Seed  int64
	Items map[string]int
}

// hooks stores a function-typed field; calls through it resolve to every
// address-taken function with a matching signature.
type hooks struct {
	eval func(int) int
}

// CachedEntry is the fixture's cached entry point (the check's seed).
func CachedEntry(r request) int {
	h := hooks{eval: scale}
	total := h.eval(stamp())
	total += seededRand(r)
	total += leakOrder(r.Items)
	total += viaInterface(worker{})
	total += suppressed()
	total += countGlobally(&request{})
	allowedSink(total)
	return total
}

// hits is a process-wide counter: every request's work lands in it.
var hits atomic.Int64

// countGlobally writes the package-level counter (flagged) next to a
// per-request counter and a read, which are fine.
func countGlobally(r *request) int {
	hits.Add(1)   // want "updates package-level atomic hits on a cached path"
	hits.Store(0) // want "updates package-level atomic hits on a cached path"
	var perRequest atomic.Int64
	perRequest.Add(r.Seed)
	return int(hits.Load() + perRequest.Load())
}

// stamp is reached by a static call.
func stamp() int {
	t := time.Now() // want "calls time.Now on a cached path .reachable from .*CachedEntry"
	return int(t.Unix())
}

// scale is reachable only through the function-typed hooks.eval field.
func scale(x int) int {
	if os.Getenv("PUREDET_DEBUG") != "" { // want "reads os.Getenv on a cached path"
		return 0
	}
	return 2 * x
}

// seededRand contrasts request-derived randomness (allowed) with wall-clock
// seeding and the process-global source (both flagged).
func seededRand(r request) int {
	rng := rand.New(rand.NewSource(r.Seed))
	bad := rand.New(rand.NewSource(time.Now().UnixNano())) // want "seeds rand.NewSource from a non-request value" "calls time.Now on a cached path"
	n := rand.Intn(3)                                      // want "calls math/rand.Intn .process-global source. on a cached path"
	return rng.Intn(10) + bad.Intn(10) + n
}

// leakOrder shows the allowed collect-then-sort idiom next to a
// last-writer-wins assignment that leaks map order.
func leakOrder(items map[string]int) int {
	var names []string
	for name := range items {
		names = append(names, name)
	}
	sort.Strings(names)
	out := 0
	for _, name := range names {
		out += items[name]
	}
	var first string
	for name := range items {
		first = name // want "assigns first during map iteration"
	}
	_ = first
	return out
}

// runner reaches worker.run through the interface method set.
type runner interface{ run() int }

type worker struct{}

func (w worker) run() int {
	var total float64
	m := map[int]float64{1: 1.5, 2: 2.5}
	for _, v := range m {
		total += v // want "accumulates float total in map iteration order"
	}
	return int(total)
}

func viaInterface(r runner) int { return r.run() }

// allowedSink is allowlisted in the check's sink table: its wall-clock use
// is never reported and nothing past it is traversed.
func allowedSink(total int) {
	_ = time.Now().Add(time.Duration(total))
}

// suppressed is the golden suppression case.
func suppressed() int {
	//securelint:ignore puredet fixture: suppression case for the golden test
	return int(time.Now().Unix())
}

// notReachable is never called from the seed: despite the wall-clock read
// and the counter update it must produce no finding, pinning the
// reachability boundary.
func notReachable() int64 {
	hits.Add(1)
	return time.Now().Unix()
}
