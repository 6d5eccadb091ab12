package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/dse"
	"secureloop/internal/obs"
	"secureloop/internal/store"
)

// Config assembles a Service.
type Config struct {
	// Admission bounds concurrent load (zero value: documented defaults).
	Admission AdmissionConfig
	// Store, when non-nil, is the persistent content-addressed result tier
	// mounted under every request: identical repeats replay byte-identical
	// results without re-evaluating anything.
	Store *store.Store
	// MaxParallel bounds each request's internal worker pool (<= 0: one
	// worker per CPU). Results are identical at any setting.
	MaxParallel int
	// Observe additionally receives every request's progress events (for
	// the daemon's -progress log); per-request subscribers attach through
	// the flight fanout regardless.
	Observe obs.Observer
}

// eventBuffer is the per-subscriber progress buffer. When a subscriber
// falls behind, events are dropped for it alone (see obs.Fanout's drop
// policy), so the size only sets how far a subscriber may lag before it
// loses events; no producer ever blocks on it.
const eventBuffer = 256

// Counters are the service's monotonic request counters (JSON-ready for
// the stats endpoint).
type Counters struct {
	// Admitted counts flight leaders that took an admission slot.
	Admitted int64 `json:"admitted"`
	// Coalesced counts requests served by joining an identical in-flight
	// request instead of taking a slot.
	Coalesced int64 `json:"coalesced"`
	// RejectedQueueFull / RejectedTooLarge / RejectedDraining count shed
	// requests by reason.
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedTooLarge  int64 `json:"rejected_too_large"`
	RejectedDraining  int64 `json:"rejected_draining"`
	// Completed / Failed / Cancelled count finished flights by outcome
	// (Cancelled is the subset of Failed whose error is the context's).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// StoreHits counts completed flights answered by the persistent store
	// without evaluation.
	StoreHits int64 `json:"store_hits"`
}

// Service is the scheduling service: admission → coalesce → compute →
// stream. It is safe for concurrent use.
type Service struct {
	cfg Config
	adm *admission

	mu      sync.Mutex
	flights map[store.Key]*flight // guarded by mu
	// work sums the Accounting of every finished flight.
	work Accounting // guarded by mu

	admitted, coalesced  atomic.Int64
	rejQueue, rejLarge   atomic.Int64
	rejDraining          atomic.Int64
	completed, failed    atomic.Int64
	cancelled, storeHits atomic.Int64
}

// New assembles a Service from the config.
func New(cfg Config) *Service {
	return &Service{
		cfg:     cfg,
		adm:     newAdmission(cfg.Admission),
		flights: make(map[store.Key]*flight),
	}
}

// Store exposes the mounted persistent store (nil when none).
func (s *Service) Store() *store.Store { return s.cfg.Store }

// Drain stops admitting new requests and blocks until every in-flight
// request has finished, or until ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	return s.adm.Drain(ctx)
}

// RetryAfterSeconds is the Retry-After hint for shed requests.
func (s *Service) RetryAfterSeconds() int { return s.adm.RetryAfterSeconds() }

// flight is one in-progress computation of a request identity. All
// concurrent requests with the same canonical key share one flight: the
// first becomes the leader (admitted, computes under its own context),
// the rest are followers (subscribe to the fanout, wait on done).
type flight struct {
	fan  *obs.Fanout
	work obs.Tally // the compute's work-count events
	done chan struct{}
	res  result // valid after done closes
}

// result is what one flight produced; every request it served reads it.
type result struct {
	body     []byte
	value    any
	storeHit bool
	acct     Accounting
	err      error
}

// Accounting is the search work behind one response: the mapper and
// AuthBlock searches its flight ran and, for a sweep, the coordinator's
// accounting. Work a memo or another flight did is charged there, not here;
// a coalesced follower reports its leader's accounting.
type Accounting struct {
	obs.Counts
	// Sweep is the sweep coordinator's accounting (zero for schedule and
	// authblock requests).
	Sweep dse.FrontStats
}

// add returns the field-wise sum of a and b.
func (a Accounting) add(b Accounting) Accounting {
	return Accounting{
		Counts: a.Counts.Add(b.Counts),
		Sweep: dse.FrontStats{
			Points:      a.Sweep.Points + b.Sweep.Points,
			Bounded:     a.Sweep.Bounded + b.Sweep.Bounded,
			Pruned:      a.Sweep.Pruned + b.Sweep.Pruned,
			Deferred:    a.Sweep.Deferred + b.Sweep.Deferred,
			Reevaluated: a.Sweep.Reevaluated + b.Sweep.Reevaluated,
			FullEvals:   a.Sweep.FullEvals + b.Sweep.FullEvals,
			StoreHits:   a.Sweep.StoreHits + b.Sweep.StoreHits,
		},
	}
}

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// Deadline bounds the compute time (0: the admission default; clamped
	// to the admission maximum). The deadline applies to the flight this
	// request leads; a follower's wait is bounded by its own context.
	Deadline time.Duration
	// MemoryEstimate is the request's admission memory estimate in bytes
	// (0: a small default). Estimates gate admission against the
	// memory budget; they are not enforced allocations.
	MemoryEstimate int64
	// Events, when true, attaches a progress subscription to the returned
	// Pending. Leaders subscribe before compute starts (no events missed);
	// followers join mid-stream.
	Events bool
}

// Pending is one submitted request: an optional ordered progress stream
// plus the eventual result. The caller must consume Events (if requested)
// until closed, or call Cancel, before abandoning the Pending.
type Pending struct {
	events chan obs.Event
	done   chan struct{}
	cancel context.CancelFunc

	res       result
	coalesced bool
}

// Events is the ordered progress stream (nil unless requested). It closes
// when the result is ready.
func (p *Pending) Events() <-chan obs.Event { return p.events }

// Done closes when the result is ready.
func (p *Pending) Done() <-chan struct{} { return p.done }

// Cancel abandons the submission from this caller's side. The underlying
// flight keeps running if other callers still wait on it.
func (p *Pending) Cancel() { p.cancel() }

// Result blocks until the flight finishes and returns the canonical
// response body, the typed response value, and the serving accounting.
func (p *Pending) Result() (body []byte, value any, storeHit, coalesced bool, err error) {
	<-p.done
	return p.res.body, p.res.value, p.res.storeHit, p.coalesced, p.res.err
}

// Accounting blocks until the flight finishes and returns the search work
// it did. Requests that coalesced onto one flight report the same
// accounting; a request that failed before its flight ran reports none.
func (p *Pending) Accounting() Accounting {
	<-p.done
	return p.res.acct
}

// runFunc computes one response under a context, emitting progress and
// work-count events through ob: it returns the typed response, its
// canonical body, whether the persistent store answered without
// evaluation, and a sweep's coordinator accounting (zero for the other
// kinds).
type runFunc func(ctx context.Context, ob obs.Observer) (value any, body []byte, storeHit bool, sweep dse.FrontStats, err error)

// submit runs the coalesce → admit → compute pipeline for one request
// identity. The returned Pending's goroutine drives the singleflight retry
// loop: a follower whose leader died of the *leader's* context failure
// retries (and may lead the next flight), mirroring the mapper cache's
// in-flight protocol, so one impatient client can never poison the result
// for the patient ones.
func (s *Service) submit(ctx context.Context, key store.Key, opts SubmitOptions, run runFunc) *Pending {
	cctx, cancel := context.WithCancel(ctx)
	p := &Pending{
		done:   make(chan struct{}),
		cancel: cancel,
	}
	if opts.Events {
		p.events = make(chan obs.Event, eventBuffer)
	}
	go func() {
		defer close(p.done)
		defer cancel()
		if p.events != nil {
			defer close(p.events)
		}
		p.res, p.coalesced = s.drive(cctx, key, opts, p.events, run)
	}()
	return p
}

// drive is the submit goroutine body: join or lead flights until one
// resolves, forwarding its events into out (when non-nil). The leader's
// compute runs in its own goroutine so this one can keep draining the
// subscription while it works — events reach out live, and a subscriber
// can never fill the fanout buffer unread during compute.
func (s *Service) drive(ctx context.Context, key store.Key, opts SubmitOptions, out chan obs.Event, run runFunc) (res result, coalesced bool) {
	everCoalesced := false
	for {
		fl, leader := s.joinOrLead(key)
		if !leader {
			everCoalesced = true
			s.coalesced.Add(1)
		}
		var sub *obs.Subscription
		if out != nil {
			sub = fl.fan.Subscribe(eventBuffer)
		}
		if leader {
			go s.lead(ctx, key, fl, opts, run)
		}
		forward(ctx, fl, sub, out)
		if leader {
			// The flight is bound to our context, so it always finishes:
			// wait for it rather than racing ctx.Done, keeping the result
			// fields and counters settled before the Pending resolves.
			<-fl.done
		} else {
			select {
			case <-fl.done:
			case <-ctx.Done():
				if sub != nil {
					sub.Unsubscribe()
				}
				return result{err: ctx.Err()}, everCoalesced
			}
		}
		if fl.res.err == nil || leader || ctx.Err() != nil || !isCtxErr(fl.res.err) {
			return fl.res, everCoalesced
		}
		// The flight died of a context failure that is not ours: its leader
		// gave up. Retry — the next round may make us the leader. (A leader
		// returns its own flight's outcome above — including its deadline
		// expiry — and never retries.)
	}
}

// joinOrLead returns the live flight for key (follower) or registers a new
// one (leader).
func (s *Service) joinOrLead(key store.Key) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fl, ok := s.flights[key]; ok {
		return fl, false
	}
	fl := &flight{fan: obs.NewFanout(), done: make(chan struct{})}
	s.flights[key] = fl
	return fl, true
}

// lead runs the leader's side of one flight: admission, deadline, compute,
// publish, retire. It runs in its own goroutine (the driving goroutine
// forwards events concurrently); the flight's lifetime is the leader's
// context. The compute's work is charged to the flight once, however many
// requests it serves.
func (s *Service) lead(ctx context.Context, key store.Key, fl *flight, opts SubmitOptions, run runFunc) {
	finish := func(res result) {
		s.mu.Lock()
		delete(s.flights, key)
		s.work = s.work.add(res.acct)
		s.mu.Unlock()
		fl.res = res
		s.account(res.storeHit, res.err)
		close(fl.done)
		fl.fan.Close()
	}

	release, err := s.adm.Admit(ctx, opts.MemoryEstimate)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.rejQueue.Add(1)
		case errors.Is(err, ErrRequestTooLarge):
			s.rejLarge.Add(1)
		case errors.Is(err, ErrDraining):
			s.rejDraining.Add(1)
		}
		finish(result{err: err})
		return
	}
	s.admitted.Add(1)
	rctx, rcancel := context.WithTimeout(ctx, s.adm.cfg.Deadline(opts.Deadline))
	res := runRecovered(rctx, obs.Multi(fl.fan, &fl.work, s.cfg.Observe), run)
	rcancel()
	release()
	res.acct.Counts = fl.work.Counts()
	finish(res)
}

// runRecovered calls run, failing the request instead of the process when
// the compute panics (lead runs on its own goroutine, so nothing above it
// would recover). The error is obs.PanicError's: the panic value without a
// stack trace.
func runRecovered(ctx context.Context, ob obs.Observer, run runFunc) (res result) {
	defer func() {
		if r := recover(); r != nil {
			res = result{err: &obs.PanicError{Value: r}}
		}
	}()
	res.value, res.body, res.storeHit, res.acct.Sweep, res.err = run(ctx, ob)
	return res
}

// account tallies one finished flight.
func (s *Service) account(storeHit bool, err error) {
	switch {
	case err == nil:
		s.completed.Add(1)
		if storeHit {
			s.storeHits.Add(1)
		}
	default:
		s.failed.Add(1)
		if isCtxErr(err) {
			s.cancelled.Add(1)
		}
	}
}

// forward drains sub into out without blocking the flight: it copies events
// as they arrive until the flight finishes or the caller's context ends.
// Runs inline in the driving goroutine for followers and leaders alike,
// concurrently with the compute (lead runs in its own goroutine), so events
// stream into out live; the leader subscribes before compute starts, so it
// misses none.
func forward(ctx context.Context, fl *flight, sub *obs.Subscription, out chan obs.Event) {
	if sub == nil {
		return
	}
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			select {
			case out <- ev:
			default:
				// The caller's buffer is full: drop, matching the fanout's
				// own policy. Seq gaps make the drop detectable.
			}
		case <-ctx.Done():
			sub.Unsubscribe()
			return
		case <-fl.done:
			// Drain what is buffered, then stop.
			for {
				select {
				case ev, ok := <-sub.Events():
					if !ok {
						return
					}
					select {
					case out <- ev:
					default:
					}
				default:
					sub.Unsubscribe()
					return
				}
			}
		}
	}
}

// isCtxErr reports whether err stems from context cancellation or timeout.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// BeginSchedule validates and submits a schedule request, returning its
// Pending handle.
func (s *Service) BeginSchedule(ctx context.Context, req *ScheduleRequest, opts SubmitOptions) (*Pending, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if opts.MemoryEstimate == 0 {
		opts.MemoryEstimate = scheduleMemEstimate(req)
	}
	return s.submit(ctx, persistScheduleKey(req), opts, func(ctx context.Context, ob obs.Observer) (any, []byte, bool, dse.FrontStats, error) {
		value, body, storeHit, err := s.ScheduleBody(ctx, req, ob)
		return value, body, storeHit, dse.FrontStats{}, err
	}), nil
}

// ScheduleBody is the pure compute path of one schedule request: given a
// context and an observer it produces the typed response and its canonical
// body. It is a securelint puredet seed — nothing it reaches may read
// wall-clock time, the environment, or leak map order into the result.
func (s *Service) ScheduleBody(ctx context.Context, req *ScheduleRequest, ob obs.Observer) (*ScheduleResponse, []byte, bool, error) {
	res, storeHit, err := s.ScheduleResult(ctx, req, ob)
	if err != nil {
		return nil, nil, false, err
	}
	value := scheduleResponse(req, res)
	body, err := encodeBody(value)
	if err != nil {
		return nil, nil, false, err
	}
	return value, body, storeHit, nil
}

// ScheduleResult is the compute half of ScheduleBody: it schedules the
// request on this service's worker width and store, and reports whether
// the store answered it without a search. In-process front ends that render
// more of the result than the response carries call it directly.
func (s *Service) ScheduleResult(ctx context.Context, req *ScheduleRequest, ob obs.Observer) (*core.NetworkResult, bool, error) {
	sch := req.scheduler()
	sch.MaxParallel = s.cfg.MaxParallel
	sch.Observe = obs.OrNop(ob)
	sch.Store = s.cfg.Store
	storeHit := sch.StoredNetwork(req.Network, req.Algorithm)
	res, err := sch.ScheduleNetworkCtx(ctx, req.Network, req.Algorithm)
	if err != nil {
		return nil, false, err
	}
	return res, storeHit, nil
}

// BeginSweep validates and submits a sweep request, returning its Pending
// handle.
func (s *Service) BeginSweep(ctx context.Context, req *SweepRequest, opts SubmitOptions) (*Pending, error) {
	d := req.Defaulted()
	req = &d
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if opts.MemoryEstimate == 0 {
		opts.MemoryEstimate = s.sweepMemEstimate(req)
	}
	return s.submit(ctx, persistSweepKey(req), opts, func(ctx context.Context, ob obs.Observer) (any, []byte, bool, dse.FrontStats, error) {
		value, body, stats, err := s.SweepBody(ctx, req, ob)
		return value, body, false, stats, err
	}), nil
}

// SweepBody is the pure compute path of one sweep request (a securelint
// puredet seed; see ScheduleBody). Besides the response it returns the
// coordinator's accounting, also when the sweep fails.
func (s *Service) SweepBody(ctx context.Context, req *SweepRequest, ob obs.Observer) (*SweepResponse, []byte, dse.FrontStats, error) {
	opt := req.optionsEnc(nil)
	opt.Observe = obs.OrNop(ob)
	opt.MaxParallel = s.cfg.MaxParallel
	opt.Store = s.cfg.Store

	res, err := dse.Sweep(ctx, req.Network, req.Specs, req.Cryptos, req.Algorithm, opt)
	if err != nil {
		return nil, nil, res.Stats, err
	}
	points := res.Points
	if req.Front {
		points = res.Front
	}
	value := &SweepResponse{
		Network:   networkLabel(req.Network),
		Algorithm: req.Algorithm.String(),
		FrontOnly: req.Front,
		Points:    make([]PointBody, 0, len(points)),
	}
	for _, d := range points {
		value.Points = append(value.Points, pointBody(d))
	}
	body, err := encodeBody(value)
	if err != nil {
		return nil, nil, res.Stats, err
	}
	return value, body, res.Stats, nil
}

// BeginAuthBlock validates and submits an authblock request, returning its
// Pending handle.
func (s *Service) BeginAuthBlock(ctx context.Context, req *AuthBlockRequest, opts SubmitOptions) (*Pending, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if opts.MemoryEstimate == 0 {
		opts.MemoryEstimate = authBlockMemEstimate(req)
	}
	return s.submit(ctx, persistAuthBlockKey(req), opts, func(ctx context.Context, ob obs.Observer) (any, []byte, bool, dse.FrontStats, error) {
		value, body, storeHit, err := s.AuthBlockBody(ctx, req, ob)
		return value, body, storeHit, dse.FrontStats{}, err
	}), nil
}

// sweepEntryMemBytes is what one u of an authblock request's cost curve
// costs while AuthBlockBody builds the response: the authblock.Result
// SweepCtx appends, the SweepEntryBody copied from it, and the entry's
// JSON at its widest (every integer at its longest decimal form, plus the
// separating comma). It is derived on first use rather than at start-up,
// which keeps the JSON encoder's reflection off the daemon's cold start.
var sweepEntryMemBytes = sync.OnceValue(func() int64 {
	const w = math.MinInt64
	raw, _ := json.Marshal(SweepEntryBody{U: math.MinInt, Costs: CostsBody{w, w, w, w, w}})
	return int64(unsafe.Sizeof(authblock.Result{})+unsafe.Sizeof(SweepEntryBody{})) + int64(len(raw)+1)
})

// authBlockMemEstimate is the admission memory estimate of an authblock
// request: a flat 1 MiB for the search plus MaxU curve entries. The sum
// saturates instead of wrapping, so an absurd curve is rejected as too
// large rather than admitted as small.
func authBlockMemEstimate(req *AuthBlockRequest) int64 {
	const base = 1 << 20
	per := sweepEntryMemBytes()
	if int64(req.MaxU) > (math.MaxInt64-base)/per {
		return math.MaxInt64
	}
	return base + int64(req.MaxU)*per
}

// AuthBlockBody is the pure compute path of one authblock request (a
// securelint puredet seed; see ScheduleBody).
func (s *Service) AuthBlockBody(ctx context.Context, req *AuthBlockRequest, ob obs.Observer) (*AuthBlockResponse, []byte, bool, error) {
	st := s.cfg.Store
	storeHit := authblock.StoredOptimal(st, req.Producer, req.Consumer, req.Params)
	opt, err := authblock.OptimalStoredCtx(ctx, ob, st, req.Producer, req.Consumer, req.Params)
	if err != nil {
		return nil, nil, false, err
	}
	base, rehashed := authblock.TileAsAuthBlock(req.Producer, req.Consumer, req.Params)
	value := &AuthBlockResponse{
		Optimal:        assignmentBody(opt.Assignment),
		Costs:          costsBody(opt.Costs),
		Baseline:       costsBody(base),
		BaselineRehash: rehashed,
	}
	if req.MaxU > 0 {
		sweep, err := authblock.SweepCtx(ctx, req.Producer, req.Consumer, req.Orientation, req.MaxU, req.Params)
		if err != nil {
			return nil, nil, false, err
		}
		value.SweepOrientation = req.Orientation.String()
		value.Sweep = make([]SweepEntryBody, 0, len(sweep))
		for _, r := range sweep {
			value.Sweep = append(value.Sweep, SweepEntryBody{U: r.Assignment.U, Costs: costsBody(r.Costs)})
		}
	}
	body, err := encodeBody(value)
	if err != nil {
		return nil, nil, false, err
	}
	return value, body, storeHit, nil
}

// scheduleMemEstimate is the admission memory estimate of a schedule
// request: a base plus a per-layer allowance for candidate lists and pair
// matrices (TopK^2 per adjacent pair, but the coarse layer term dominates).
func scheduleMemEstimate(req *ScheduleRequest) int64 {
	const base, perLayer = 8 << 20, 1 << 20
	return base + int64(len(req.Network.Layers))*perLayer
}

// sweepMemEstimate scales the schedule estimate by this service's
// per-request worker-pool breadth — at most MaxParallel (default one per
// CPU) design points evaluate at once within one sweep — and adds what the
// sweep allocates up front for every point of the design space. The sum
// saturates instead of wrapping, so an absurd design space is rejected as
// too large rather than admitted as small.
func (s *Service) sweepMemEstimate(req *SweepRequest) int64 {
	per := scheduleMemEstimate(&ScheduleRequest{Network: req.Network})
	breadth := s.cfg.MaxParallel
	if breadth <= 0 {
		breadth = runtime.GOMAXPROCS(0)
	}
	est := per * int64(breadth)
	points := int64(len(req.Specs)) * int64(len(req.Cryptos))
	if points > (math.MaxInt64-est)/dse.PointMemBytes {
		return math.MaxInt64
	}
	return est + points*dse.PointMemBytes
}
