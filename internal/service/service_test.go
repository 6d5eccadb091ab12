package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/dse"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// await blocks on a submitted request and returns its typed response and
// canonical body.
func await[T any](p *Pending, err error) (*T, []byte, error) {
	if err != nil {
		return nil, nil, err
	}
	body, value, _, _, err := p.Result()
	if err != nil {
		return nil, nil, err
	}
	return value.(*T), body, nil
}

// tinyNetwork is a deliberately small two-layer chain: large enough to
// exercise the full pipeline (mapping, AuthBlock, annealing), small enough
// to schedule in milliseconds.
func tinyNetwork() *workload.Network {
	mk := func(name string, c, m int) workload.Layer {
		return workload.Layer{
			Name: name, C: c, M: m, R: 3, S: 3, P: 7, Q: 7,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1,
			N: 1, WordBits: 16,
		}
	}
	return &workload.Network{
		Name:     "tiny2",
		Layers:   []workload.Layer{mk("l0", 8, 16), mk("l1", 16, 8)},
		Segments: [][]int{{0, 1}},
	}
}

func tinyScheduleRequest() *ScheduleRequest {
	return &ScheduleRequest{
		Network:          tinyNetwork(),
		Spec:             arch.Base(),
		Crypto:           cryptoengine.Config{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1},
		Algorithm:        core.CryptOptCross,
		AnnealIterations: 40,
	}
}

// TestScheduleKeyTiers: every request knob the response depends on changes
// the canonical key — the labels the body carries included, so requests
// that differ only in a name never share a flight.
func TestScheduleKeyTiers(t *testing.T) {
	base := persistScheduleKey(tinyScheduleRequest())
	mutate := func(name string, f func(*ScheduleRequest), want bool) {
		req := tinyScheduleRequest()
		f(req)
		changed := persistScheduleKey(req) != base
		if changed != want {
			t.Errorf("%s: key changed = %v, want %v", name, changed, want)
		}
	}
	mutate("algorithm", func(r *ScheduleRequest) { r.Algorithm = core.CryptTileSingle }, true)
	mutate("objective", func(r *ScheduleRequest) { r.Objective = core.MinEDP }, true)
	mutate("topk", func(r *ScheduleRequest) { r.TopK = 3 }, true)
	mutate("anneal", func(r *ScheduleRequest) { r.AnnealIterations = 41 }, true)
	mutate("mapper mode", func(r *ScheduleRequest) { r.Mapper.Mode = mapper.Guided }, true)
	mutate("mapper epsilon", func(r *ScheduleRequest) { r.Mapper.Epsilon = 0.25 }, true)
	mutate("mapper warmstart", func(r *ScheduleRequest) { r.Mapper.DisableWarmStart = true }, true)
	mutate("pes", func(r *ScheduleRequest) { r.Spec.PEsX = 16 }, true)
	mutate("glb", func(r *ScheduleRequest) { r.Spec.GlobalBufferBytes *= 2 }, true)
	mutate("dram", func(r *ScheduleRequest) { r.Spec.DRAM = arch.HBM2x64 }, true)
	mutate("crypto count", func(r *ScheduleRequest) { r.Crypto.CountPerDatatype = 2 }, true)
	mutate("layer shape", func(r *ScheduleRequest) { r.Network.Layers[0].C = 12 }, true)
	mutate("segments", func(r *ScheduleRequest) { r.Network.Segments = [][]int{{0}, {1}} }, true)
	mutate("network name", func(r *ScheduleRequest) { r.Network.Name = "renamed" }, true)
	mutate("layer name", func(r *ScheduleRequest) { r.Network.Layers[0].Name = "renamed" }, true)
	mutate("arch name", func(r *ScheduleRequest) { r.Spec.Name = "renamed" }, true)
	mutate("engine name", func(r *ScheduleRequest) { r.Crypto.Engine.Name = "renamed" }, true)
	mutate("dram name", func(r *ScheduleRequest) { r.Spec.DRAM.Name = "renamed" }, false)
}

// TestSweepKeyNeutralKnobs: the wire deadline shapes only how long a sweep
// may run, so it stays out of the sweep identity; every result-bearing knob
// changes the key.
func TestSweepKeyNeutralKnobs(t *testing.T) {
	resolve := func(body string) *SweepRequest {
		var w SweepWire
		if err := json.Unmarshal([]byte(body), &w); err != nil {
			t.Fatal(err)
		}
		req, err := w.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		d := req.Defaulted()
		return &d
	}
	const plain = `{"network": "alexnet", "anneal_iterations": 40}`
	base := persistSweepKey(resolve(plain))
	if persistSweepKey(resolve(`{"network": "alexnet", "anneal_iterations": 40, "deadline_ms": 5}`)) != base {
		t.Error("deadline_ms changed the sweep key; it never shapes the result")
	}
	for name, body := range map[string]string{
		"front":     `{"network": "alexnet", "anneal_iterations": 40, "front": true}`,
		"algorithm": `{"network": "alexnet", "anneal_iterations": 40, "algorithm": "Unsecure"}`,
		"anneal":    `{"network": "alexnet", "anneal_iterations": 41}`,
		"mapper":    `{"network": "alexnet", "anneal_iterations": 40, "mapper": {"mode": "guided"}}`,
		"network":   `{"network": "resnet18", "anneal_iterations": 40}`,
		"space":     `{"network": "alexnet", "anneal_iterations": 40, "specs": [{}], "cryptos": [{}]}`,
	} {
		if persistSweepKey(resolve(body)) == base {
			t.Errorf("%s did not change the sweep key", name)
		}
	}
}

// TestHugeArrayAxisMeetsDeadline: a one-layer network whose output rows
// (a prime, 1000000007) are spread over a 1000000006-wide PE axis resolves
// well inside two seconds. Finding the bound's largest divisor that fits
// the axis has no cancellation point, so it must cost √bound steps, not
// one per PE.
func TestHugeArrayAxisMeetsDeadline(t *testing.T) {
	const body = `{
		"network": {"name": "huge", "layers": [{"name": "l0", "c": 1, "m": 1, "r": 1, "s": 1, "p": 1000000007, "q": 1}]},
		"arch": {"pes_x": 1000000006},
		"deadline_ms": 200
	}`
	var w ScheduleWire
	if err := json.Unmarshal([]byte(body), &w); err != nil {
		t.Fatal(err)
	}
	req, err := w.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	start := time.Now()
	p, err := svc.BeginSchedule(context.Background(), req, SubmitOptions{Deadline: time.Duration(w.DeadlineMS) * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, _, _, err := p.Result()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("schedule failed after %v: %v", time.Since(start), err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("schedule still unresolved after 2 s")
	}
}

// countingObserver counts StageStart calls.
type countingObserver struct {
	obs.Nop
	stages atomic.Int64
}

func (c *countingObserver) StageStart(obs.StageEvent) { c.stages.Add(1) }

// TestScheduleWarmByteIdentical: with a persistent store mounted, the warm
// repeat of an identical request returns byte-identical canonical bytes and
// does zero scheduling work (no stage even starts, no AuthBlock runs).
func TestScheduleWarmByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var count countingObserver
	svc := New(Config{Store: st, Observe: &count})

	cold, coldBody, err := await[ScheduleResponse](svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{}))
	if err != nil {
		t.Fatalf("cold schedule: %v", err)
	}
	if count.stages.Load() == 0 {
		t.Fatal("cold schedule started no stages")
	}
	if cold.Total.Cycles <= 0 {
		t.Fatalf("cold schedule cycles = %d, want > 0", cold.Total.Cycles)
	}

	count.stages.Store(0)
	p, err := svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{})
	if err != nil {
		t.Fatalf("warm begin: %v", err)
	}
	warmBody, _, storeHit, _, err := p.Result()
	if err != nil {
		t.Fatalf("warm schedule: %v", err)
	}
	if !storeHit {
		t.Error("warm repeat did not report a store hit")
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("warm body differs from cold body:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}
	if n := count.stages.Load(); n != 0 {
		t.Errorf("warm repeat started %d stages, want 0", n)
	}
	if d := p.Accounting().AuthBlockSearches; d != 0 {
		t.Errorf("warm repeat ran %d AuthBlock optimisations, want 0", d)
	}
	c := svc.Stats().Service
	if c.StoreHits != 1 || c.Completed != 2 {
		t.Errorf("counters = %+v, want 2 completed with 1 store hit", c)
	}
}

// gateObserver blocks the first StageStart until released, signalling when
// the leader reaches it.
type gateObserver struct {
	obs.Nop
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGateObserver() *gateObserver {
	return &gateObserver{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateObserver) StageStart(obs.StageEvent) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

// TestCoalescing: a second identical request arriving while the first
// computes joins the same flight — one admission, one computation, shared
// byte-identical bodies.
func TestCoalescing(t *testing.T) {
	gate := newGateObserver()
	svc := New(Config{Observe: gate})
	req := tinyScheduleRequest()

	p1, err := svc.BeginSchedule(context.Background(), req, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the leader is mid-compute, flight registered

	p2, err := svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, &svc.coalesced, 1)
	close(gate.release)

	b1, _, _, co1, err1 := p1.Result()
	b2, _, _, co2, err2 := p2.Result()
	if err1 != nil || err2 != nil {
		t.Fatalf("results: %v / %v", err1, err2)
	}
	if co1 {
		t.Error("leader reported itself coalesced")
	}
	if !co2 {
		t.Error("follower did not report coalescing")
	}
	if !bytes.Equal(b1, b2) {
		t.Error("coalesced bodies differ")
	}
	c := svc.Stats().Service
	if c.Admitted != 1 || c.Coalesced != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 admitted, 1 coalesced, 1 completed", c)
	}
}

// TestLeaderCancelFollowerRetry: when the leader's client gives up
// mid-compute, a patient follower retries the flight as its new leader and
// still gets a result — one client's cancellation never poisons another's
// request.
func TestLeaderCancelFollowerRetry(t *testing.T) {
	gate := newGateObserver()
	svc := New(Config{Observe: gate})

	lctx, lcancel := context.WithCancel(context.Background())
	p1, err := svc.BeginSchedule(lctx, tinyScheduleRequest(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	p2, err := svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, &svc.coalesced, 1)

	lcancel()           // the leader's client disconnects…
	close(gate.release) // …and its compute unblocks into a dead context
	_, _, _, _, err1 := p1.Result()
	if !errors.Is(err1, context.Canceled) {
		t.Fatalf("cancelled leader result = %v, want context.Canceled", err1)
	}
	b2, _, _, _, err2 := p2.Result()
	if err2 != nil {
		t.Fatalf("follower after leader cancel: %v", err2)
	}
	if len(b2) == 0 {
		t.Fatal("follower got an empty body")
	}
}

// TestPreCancelledDoesZeroWork: a request whose context is already dead
// performs no scheduling work at all.
func TestPreCancelledDoesZeroWork(t *testing.T) {
	var count countingObserver
	svc := New(Config{Observe: &count})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := svc.BeginSchedule(ctx, tinyScheduleRequest(), SubmitOptions{})
	_, _, err = await[ScheduleResponse](p, err)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled schedule = %v, want context.Canceled", err)
	}
	if n := count.stages.Load(); n != 0 {
		t.Errorf("pre-cancelled request started %d stages, want 0", n)
	}
	if d := p.Accounting().AuthBlockSearches; d != 0 {
		t.Errorf("pre-cancelled request ran %d AuthBlock optimisations, want 0", d)
	}
	c := svc.Stats().Service
	if c.Cancelled != 1 {
		t.Errorf("cancelled counter = %d, want 1", c.Cancelled)
	}
}

// TestScheduleEvents: a Pending with events requested streams an ordered
// progress sequence that ends before the result resolves.
func TestScheduleEvents(t *testing.T) {
	svc := New(Config{})
	p, err := svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	for ev := range p.Events() {
		events = append(events, ev)
	}
	body, _, _, _, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("empty body")
	}
	if len(events) == 0 {
		t.Fatal("no progress events streamed")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event %d out of order: seq %d after %d", i, events[i].Seq, events[i-1].Seq)
		}
	}
	sawStage := false
	for _, ev := range events {
		if ev.Kind == obs.EventStageStart {
			sawStage = true
		}
	}
	if !sawStage {
		t.Error("no stage_start event in the stream")
	}
}

// TestLeaderEventsLive: a leader's progress events reach Pending.Events
// while compute is still running — not only after the result is ready.
// The gate blocks compute inside the first stage (after the fanout has
// already published the stage_start), so a live event must arrive while
// the result is provably unresolved.
func TestLeaderEventsLive(t *testing.T) {
	gate := newGateObserver()
	svc := New(Config{Observe: gate})
	p, err := svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // compute is blocked mid-stage; the result cannot be ready
	select {
	case _, ok := <-p.Events():
		if !ok {
			t.Fatal("events closed while compute was still gated")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no live event within 5s while compute was blocked")
	}
	select {
	case <-p.Done():
		t.Fatal("result resolved while compute was gated")
	default:
	}
	close(gate.release)
	for range p.Events() {
	}
	if _, _, _, _, err := p.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestAuthBlockWarmStoreHit: with a persistent store mounted, a repeated
// authblock request reports a store hit (header accounting and the service
// StoreHits counter) and runs no optimal search.
func TestAuthBlockWarmStoreHit(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := New(Config{Store: st})
	req := &AuthBlockRequest{
		Producer: authblock.ProducerGrid{C: 4, H: 20, W: 20, TileC: 4, TileH: 5, TileW: 5, WritesPerTile: 1},
		Consumer: authblock.ConsumerGrid{TileC: 4, WinH: 7, WinW: 7, StepH: 5, StepW: 5, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
		Params:   authblock.DefaultParams(),
	}
	begin := func() (storeHit bool, searches int64) {
		p, err := svc.BeginAuthBlock(context.Background(), req, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, storeHit, _, err = p.Result()
		if err != nil {
			t.Fatal(err)
		}
		return storeHit, p.Accounting().AuthBlockSearches
	}
	if hit, _ := begin(); hit {
		t.Error("cold authblock request reported a store hit")
	}
	hit, searches := begin()
	if !hit {
		t.Error("warm authblock repeat did not report a store hit")
	}
	if searches != 0 {
		t.Errorf("warm repeat ran %d optimal searches, want 0", searches)
	}
	if c := svc.Stats().Service; c.StoreHits != 1 {
		t.Errorf("store_hits = %d, want 1", c.StoreHits)
	}
}

// TestAuthBlockRoundTrip: the authblock path agrees with calling the
// optimiser directly, including the optional sweep curve.
func TestAuthBlockRoundTrip(t *testing.T) {
	svc := New(Config{})
	req := &AuthBlockRequest{
		Producer: authblock.ProducerGrid{C: 8, H: 16, W: 16, TileC: 8, TileH: 4, TileW: 4, WritesPerTile: 1},
		Consumer: authblock.ConsumerGrid{TileC: 8, WinH: 6, WinW: 6, StepH: 4, StepW: 4, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
		Params:   authblock.DefaultParams(),
		MaxU:     4,
	}
	resp, body, err := await[AuthBlockResponse](svc.BeginAuthBlock(context.Background(), req, SubmitOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatal("canonical body must be newline-terminated")
	}
	want, err := authblock.OptimalStoredCtx(context.Background(), nil, nil, req.Producer, req.Consumer, req.Params)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Optimal.U != want.Assignment.U || resp.Optimal.Orientation != want.Assignment.Orientation.String() {
		t.Errorf("optimal = %+v, want %+v", resp.Optimal, want.Assignment)
	}
	if resp.Costs.TotalBits != want.Costs.Total() {
		t.Errorf("total bits = %d, want %d", resp.Costs.TotalBits, want.Costs.Total())
	}
	if len(resp.Sweep) != 4 {
		t.Errorf("sweep entries = %d, want 4", len(resp.Sweep))
	}
	if resp.SweepOrientation != "horizontal" {
		t.Errorf("sweep orientation = %q, want horizontal", resp.SweepOrientation)
	}
}

// TestSweepSmall: a 2x1 design space sweeps end to end and marks a front.
func TestSweepSmall(t *testing.T) {
	svc := New(Config{})
	base := arch.Base()
	req := &SweepRequest{
		Network:          tinyNetwork(),
		Specs:            []arch.Spec{base, base.WithPEs(16, 14)},
		Cryptos:          []cryptoengine.Config{{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1}},
		Algorithm:        core.CryptOptCross,
		AnnealIterations: 20,
	}
	resp, _, err := await[SweepResponse](svc.BeginSweep(context.Background(), req, SubmitOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(resp.Points))
	}
	pareto := 0
	for _, p := range resp.Points {
		if p.Cycles <= 0 {
			t.Errorf("point %s has cycles %d", p.Label, p.Cycles)
		}
		if p.Pareto {
			pareto++
		}
	}
	if pareto == 0 {
		t.Error("no Pareto point marked")
	}
}

// TestSweepOversizedRejected: a design space whose up-front per-point
// allocation alone exceeds the memory budget is rejected with
// ErrRequestTooLarge at admission, before any point is bounded or
// evaluated.
func TestSweepOversizedRejected(t *testing.T) {
	svc := New(Config{MaxParallel: 1, Admission: AdmissionConfig{MemoryBudgetBytes: 1 << 30}})
	n := 1 + int(math.Sqrt(float64((1<<30)/dse.PointMemBytes)))
	specs := make([]arch.Spec, n)
	for i := range specs {
		specs[i] = arch.Base()
	}
	cryptos := make([]cryptoengine.Config, n)
	for i := range cryptos {
		cryptos[i] = cryptoengine.Config{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1}
	}
	req := &SweepRequest{Network: tinyNetwork(), Specs: specs, Cryptos: cryptos, Algorithm: core.CryptOptCross, Front: true}
	p, err := svc.BeginSweep(context.Background(), req, SubmitOptions{})
	_, _, err = await[SweepResponse](p, err)
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("%dx%d sweep = %v, want ErrRequestTooLarge", n, n, err)
	}
	if c := svc.Stats().Service; c.RejectedTooLarge != 1 || c.Admitted != 0 {
		t.Errorf("counters = %+v, want one too-large rejection and no admission", c)
	}
	if a := p.Accounting(); a != (Accounting{}) {
		t.Errorf("rejected sweep did work: %+v", a)
	}
	if st := svc.Stats(); st.SweepPrune != (PruneStatsBody{}) {
		t.Errorf("rejected sweep counted in /v1/stats: %+v", st.SweepPrune)
	}
	// Only the per-point term pushes the space over the budget.
	if small := svc.sweepMemEstimate(&SweepRequest{Network: tinyNetwork(), Specs: specs[:1], Cryptos: cryptos[:1]}); small >= 1<<30 {
		t.Fatalf("one-point estimate %d already exceeds the budget", small)
	}
}

// TestDrainingRejects: once draining, new submissions fail with ErrDraining
// and the counter records them.
func TestDrainingRejects(t *testing.T) {
	svc := New(Config{})
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, err := await[ScheduleResponse](svc.BeginSchedule(context.Background(), tinyScheduleRequest(), SubmitOptions{}))
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("schedule while draining = %v, want ErrDraining", err)
	}
	if c := svc.Stats().Service; c.RejectedDraining != 1 {
		t.Errorf("rejected_draining = %d, want 1", c.RejectedDraining)
	}
}

// TestValidationErrors: malformed requests fail before admission.
func TestValidationErrors(t *testing.T) {
	svc := New(Config{})
	if _, err := svc.BeginSchedule(context.Background(), &ScheduleRequest{}, SubmitOptions{}); err == nil {
		t.Error("nil network accepted")
	}
	req := tinyScheduleRequest()
	req.Algorithm = 99
	if _, err := svc.BeginSchedule(context.Background(), req, SubmitOptions{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if c := svc.Stats().Service; c.Admitted != 0 {
		t.Errorf("admitted = %d after only invalid requests, want 0", c.Admitted)
	}
}

func waitForCounter(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for counter to reach %d (have %d)", want, c.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// hugeCurveRequest asks for a 10^9-entry cost curve over a tiny grid: the
// search is trivial, but the curve alone would need hundreds of GB.
func hugeCurveRequest() *AuthBlockRequest {
	return &AuthBlockRequest{
		Producer: authblock.ProducerGrid{C: 1, H: 30, W: 30, TileC: 1, TileH: 30, TileW: 30, WritesPerTile: 1},
		Consumer: authblock.ConsumerGrid{TileC: 1, WinH: 30, WinW: 30, StepH: 30, StepW: 30,
			CountC: 1, CountH: 1, CountW: 1, FetchesPerTile: 1},
		Params: authblock.DefaultParams(),
		MaxU:   1_000_000_000,
	}
}

// TestAuthBlockOversizedRejected: an authblock request whose cost curve
// alone exceeds the default memory budget is rejected with
// ErrRequestTooLarge at admission instead of allocating the curve.
func TestAuthBlockOversizedRejected(t *testing.T) {
	svc := New(Config{})
	p, err := svc.BeginAuthBlock(context.Background(), hugeCurveRequest(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := p.Result(); !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("10^9-entry curve = %v, want ErrRequestTooLarge", err)
	}
	if c := svc.Stats().Service; c.RejectedTooLarge != 1 || c.Admitted != 0 {
		t.Errorf("counters = %+v, want one too-large rejection and no admission", c)
	}
	// Curves of the size the benchmark requests stay near the flat base.
	small := *hugeCurveRequest()
	small.MaxU = 64
	if est := authBlockMemEstimate(&small); est > 1<<20+64<<10 {
		t.Errorf("max_u 64 estimate %d, want within 64 KiB of 1 MiB", est)
	}
}
