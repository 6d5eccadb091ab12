// Package obs is the observability seam of the search pipeline: a small
// Observer interface the scheduler, DSE sweep and annealer emit progress
// events through, plus the panic-recovery helpers that keep invariant
// panics (num.MulInt overflow guards and the like) from escaping a stage
// boundary as anything but an error.
//
// Event payloads are deliberately wall-clock-free — counts and indices
// only — so emitting them never perturbs determinism and observers can be
// exercised in tests without time-dependent output.
package obs

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"
)

// Stage names one phase of the scheduling pipeline. The constants double as
// the stage context wrapped around ctx.Err() on cancellation, so an
// interrupted run reports exactly how far it got.
type Stage string

const (
	// StageMapping is step 1: crypto-aware per-layer loopnest scheduling.
	StageMapping Stage = "step 1 loopnest scheduling"
	// StageAuthBlock is step 2: batched AuthBlock pair-matrix assignment.
	StageAuthBlock Stage = "step 2 authblock assignment"
	// StageAnneal is step 3: cross-layer fine tuning.
	StageAnneal Stage = "step 3 cross-layer annealing"
	// StageAssemble is the final per-layer result assembly.
	StageAssemble Stage = "result assembly"
	// StageSweep is a DSE design-space sweep over (spec, crypto) points.
	StageSweep Stage = "design-space sweep"
)

// StageEvent marks a stage starting or ending. Units is the number of work
// items the stage will process (layers, design points, segments). The JSON
// tags here (and on the other event payloads) fix the wire names of the
// serialized progress stream (Event in event.go); renaming a tag is a wire
// format change for every cmd/secured client.
type StageEvent struct {
	Stage Stage `json:"stage"`
	Units int   `json:"units"`
}

// LayerEvent reports one completed work item within a stage: layer Index
// (or design-point index for sweeps), its Name, and the Done/Total progress
// counters. Done is a completion count, not an ordering guarantee — items
// finish in pool order.
type LayerEvent struct {
	Stage Stage  `json:"stage"`
	Index int    `json:"index"`
	Name  string `json:"name"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// AnnealEvent reports annealing progress for one segment. Tag identifies
// the segment (its first layer index); Iteration counts from 0 to
// Iterations; Best is the lowest cost observed so far.
type AnnealEvent struct {
	Tag        int     `json:"tag"`
	Iteration  int     `json:"iteration"`
	Iterations int     `json:"iterations"`
	Accepted   int     `json:"accepted"`
	Best       float64 `json:"best"`
}

// MapperSearchEvent accounts for one best-first mapper search, in guided
// mode or in exhaustive mode where the traffic floor holds (a full lattice
// walk emits none): how many tilings were fully scored versus disposed of
// cheaply. Evaluated counts tilings scored through the full permutation
// fold (warm-start seeds included); Pruned counts capacity-feasible tilings
// whose analytical lower bound exceeded the pruning threshold, so they
// were never scored; Skipped counts tilings inside spatial choices
// discarded wholesale by their part-level bound. WarmSeeds is how many
// warm-start seeds were applied.
type MapperSearchEvent struct {
	Layer     string `json:"layer"`
	Evaluated int64  `json:"evaluated"`
	Pruned    int64  `json:"pruned"`
	Skipped   int64  `json:"skipped"`
	WarmSeeds int    `json:"warm_seeds"`
}

// AuthBlockSearchEvent accounts for one AuthBlock optimal-assignment search
// that actually ran: one the memo and the persistent store could not
// answer. The event itself is the count. It has no Event kind, so it never
// reaches the serialized progress stream.
type AuthBlockSearchEvent struct{}

// SweepOutcome names how a sweep disposed of one design point without a
// fresh full evaluation.
type SweepOutcome string

const (
	// SweepPruned: the point's bound was strictly dominated by an evaluated
	// point, so it was skipped for good.
	SweepPruned SweepOutcome = "pruned"
	// SweepDeferred: the bound tied the front (or fell within the slack
	// band); the point is resolved later in the exact pass.
	SweepDeferred SweepOutcome = "deferred"
	// SweepStoreHit: the persistent store's network tier answered the
	// evaluation, so the point cost a replay, not a search.
	SweepStoreHit SweepOutcome = "store-hit"
)

// SweepPointEvent reports a design point a sweep disposed of without a
// fresh full evaluation — pruned, deferred, or replayed from the store.
// Together with LayerScheduled events for fully evaluated points, Done
// advances monotonically to Total (deferred points report the current Done
// unchanged and advance it when the exact pass resolves them).
type SweepPointEvent struct {
	Index   int          `json:"index"`
	Label   string       `json:"label"`
	Outcome SweepOutcome `json:"outcome"`
	Done    int          `json:"done"`
	Total   int          `json:"total"`
}

// Observer receives events from the search pipeline. Methods may be called
// concurrently from worker goroutines; implementations must be safe for
// concurrent use. Implementations must not mutate shared search state — the
// pipeline treats them as pure sinks.
//
// MapperSearch and AuthBlockSearch are the work-count events: each reports
// one search that actually ran, to the observer of the request that ran it.
// A search a memo or the persistent store answered reports nothing, so a
// request that coalesced onto another's search is not charged for it. The
// other four methods report progress.
type Observer interface {
	StageStart(e StageEvent)
	StageEnd(e StageEvent)
	LayerScheduled(e LayerEvent)
	AnnealProgress(e AnnealEvent)
	MapperSearch(e MapperSearchEvent)
	AuthBlockSearch(e AuthBlockSearchEvent)
	SweepPoint(e SweepPointEvent)
}

// Nop is the no-op Observer; the zero value is ready to use.
type Nop struct{}

func (Nop) StageStart(StageEvent)                {}
func (Nop) StageEnd(StageEvent)                  {}
func (Nop) LayerScheduled(LayerEvent)            {}
func (Nop) AnnealProgress(AnnealEvent)           {}
func (Nop) MapperSearch(MapperSearchEvent)       {}
func (Nop) AuthBlockSearch(AuthBlockSearchEvent) {}
func (Nop) SweepPoint(SweepPointEvent)           {}

// Counts is the search work a Tally was told about.
type Counts struct {
	// MapperSearches counts MapperSearch events; Evaluated, Pruned, Skipped
	// and WarmSeeds sum their fields.
	MapperSearches, Evaluated, Pruned, Skipped, WarmSeeds int64
	// AuthBlockSearches counts AuthBlockSearch events.
	AuthBlockSearches int64
}

// Add returns the field-wise sum of c and d.
func (c Counts) Add(d Counts) Counts {
	return Counts{
		MapperSearches:    c.MapperSearches + d.MapperSearches,
		Evaluated:         c.Evaluated + d.Evaluated,
		Pruned:            c.Pruned + d.Pruned,
		Skipped:           c.Skipped + d.Skipped,
		WarmSeeds:         c.WarmSeeds + d.WarmSeeds,
		AuthBlockSearches: c.AuthBlockSearches + d.AuthBlockSearches,
	}
}

// Tally is an Observer that counts the work-count events and ignores
// progress. Attach one per request (alongside any progress observer, with
// Multi) to learn what that request's searches cost. The zero value is
// ready to use; it is safe for concurrent use.
type Tally struct {
	Nop
	mu sync.Mutex
	c  Counts // guarded by mu
}

func (t *Tally) MapperSearch(e MapperSearchEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.MapperSearches++
	t.c.Evaluated += e.Evaluated
	t.c.Pruned += e.Pruned
	t.c.Skipped += e.Skipped
	t.c.WarmSeeds += int64(e.WarmSeeds)
}

func (t *Tally) AuthBlockSearch(AuthBlockSearchEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.AuthBlockSearches++
}

// Counts snapshots the tally.
func (t *Tally) Counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// OrNop returns o, or the no-op observer when o is nil, so pipeline code
// never branches on nil.
func OrNop(o Observer) Observer {
	if o == nil {
		return Nop{}
	}
	return o
}

// PanicError converts a recovered panic value into an error carrying the
// panic message and stack.
func PanicError(r any) error {
	return fmt.Errorf("panic: %v\n%s", r, debug.Stack())
}

// CapturePanic is a deferred stage-boundary guard: it converts an in-flight
// panic into an error stored at *errp (unless an error is already set).
// Invariant panics deep in the cost model (num.MulInt overflow and the
// AuthBlock coverage checks) fail the one request that tripped them instead
// of the process.
func CapturePanic(errp *error) {
	if r := recover(); r != nil && *errp == nil {
		*errp = PanicError(r)
	}
}

// Guard runs fn, converting a panic into a returned error. Worker-pool
// goroutine bodies are wrapped in Guard so a panicking worker surfaces as a
// stage error rather than killing the process.
func Guard(fn func() error) (err error) {
	defer CapturePanic(&err)
	return fn()
}

// Logger is an Observer that renders progress events as plain text lines,
// one per event (annealing progress is thinned to quartile steps per
// segment). It prints no work-count event: those are counts for a Tally,
// and a sweep reports one per search. It serialises concurrent emitters with
// a mutex, so output lines never interleave. Suitable for the cmd binaries'
// -progress flag.
type Logger struct {
	Nop
	mu      sync.Mutex
	w       io.Writer
	annealQ map[int]int // per-segment-tag last reported quartile
}

// NewLogger returns a Logger writing to w.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w, annealQ: make(map[int]int)}
}

func (l *Logger) StageStart(e StageEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "[%s] start: %d unit(s)\n", e.Stage, e.Units)
}

func (l *Logger) StageEnd(e StageEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "[%s] done\n", e.Stage)
}

func (l *Logger) LayerScheduled(e LayerEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "[%s] %d/%d %s\n", e.Stage, e.Done, e.Total, e.Name)
}

func (l *Logger) SweepPoint(e SweepPointEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "[%s] %d/%d %s (%s)\n", StageSweep, e.Done, e.Total, e.Label, e.Outcome)
}

func (l *Logger) AnnealProgress(e AnnealEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e.Iterations <= 0 {
		return
	}
	q := 4 * e.Iteration / e.Iterations
	if last, seen := l.annealQ[e.Tag]; seen && q <= last {
		return
	}
	l.annealQ[e.Tag] = q
	fmt.Fprintf(l.w, "[%s] segment@%d %d/%d accepted=%d best=%g\n",
		StageAnneal, e.Tag, e.Iteration, e.Iterations, e.Accepted, e.Best)
}
