package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secureloop/internal/authblock"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/service"
	"secureloop/internal/service/client"
	"secureloop/internal/service/httpapi"
	"secureloop/internal/store"
)

// tinyWire is a small inline-network schedule request; annealIters
// perturbs the identity so tests can mint distinct requests at will.
func tinyWire(annealIters int) *service.ScheduleWire {
	net := `{
		"name": "tiny2",
		"layers": [
			{"name": "l0", "c": 8, "m": 16, "r": 3, "s": 3, "p": 7, "q": 7,
			 "stride_h": 1, "stride_w": 1, "pad_h": 1, "pad_w": 1, "n": 1, "word_bits": 16},
			{"name": "l1", "c": 16, "m": 8, "r": 3, "s": 3, "p": 7, "q": 7,
			 "stride_h": 1, "stride_w": 1, "pad_h": 1, "pad_w": 1, "n": 1, "word_bits": 16}
		],
		"segments": [[0, 1]]
	}`
	return &service.ScheduleWire{
		Network:          json.RawMessage(net),
		AnnealIterations: annealIters,
	}
}

func newServer(t *testing.T, cfg service.Config) (*service.Service, *client.Client) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(httpapi.NewHandler(svc, httpapi.Options{}))
	t.Cleanup(srv.Close)
	return svc, client.New(srv.URL)
}

// TestScheduleWarmRepeatByteIdentical: against a mounted store, the warm
// repeat of an identical request over HTTP is byte-identical, reports a
// store hit in the header, and performs zero mapper or AuthBlock work.
func TestScheduleWarmRepeatByteIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, c := newServer(t, service.Config{Store: st})

	cold, coldAcct, err := c.ScheduleBytes(context.Background(), tinyWire(40))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if coldAcct.StoreHit {
		t.Error("cold request reported a store hit")
	}
	statsAfterCold, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	warm, warmAcct, err := c.ScheduleBytes(context.Background(), tinyWire(40))
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !warmAcct.StoreHit {
		t.Error("warm repeat did not report X-Secured-Store: hit")
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm body differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	statsAfterWarm, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Evaluation-free: no new AuthBlock optimisation runs, no new mapper
	// search cache activity.
	if d := statsAfterWarm.AuthOptimal.Runs - statsAfterCold.AuthOptimal.Runs; d != 0 {
		t.Errorf("warm repeat ran %d AuthBlock optimisations, want 0", d)
	}
	cold2 := statsAfterCold.MapperSearch.Hits + statsAfterCold.MapperSearch.Misses
	warm2 := statsAfterWarm.MapperSearch.Hits + statsAfterWarm.MapperSearch.Misses
	if warm2 != cold2 {
		t.Errorf("warm repeat touched the mapper search cache (%d -> %d lookups)", cold2, warm2)
	}
	if statsAfterWarm.Service.StoreHits != 1 {
		t.Errorf("service store_hits = %d, want 1", statsAfterWarm.Service.StoreHits)
	}
	// A typed decode of the same body round-trips.
	typed, _, err := c.Schedule(context.Background(), tinyWire(40))
	if err != nil {
		t.Fatal(err)
	}
	if typed.Network != "tiny2" || len(typed.Layers) != 2 || typed.Total.Cycles <= 0 {
		t.Errorf("typed response malformed: %+v", typed)
	}
}

// gateObserver blocks the first schedule stage or AuthBlock search until
// released.
type gateObserver struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newGateObserver() *gateObserver {
	return &gateObserver{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateObserver) Observe(e obs.Event) {
	if e.Kind != obs.EventStageStart && e.Kind != obs.EventAuthBlockSearch {
		return
	}
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
}

// panicObserver panics on events of one kind while armed: a stand-in for a
// compute panic deep in a schedule or an AuthBlock search.
type panicObserver struct {
	kind  obs.EventKind
	armed atomic.Bool
}

func newPanicObserver(kind obs.EventKind) *panicObserver {
	p := &panicObserver{kind: kind}
	p.armed.Store(true)
	return p
}

func (p *panicObserver) Observe(e obs.Event) {
	if e.Kind == p.kind && p.armed.Load() {
		panic("observer exploded")
	}
}

// wantPanic500 checks that err is an HTTP 500 whose body names the panic
// value and carries no stack trace: no goroutine header, no source path.
func wantPanic500(t *testing.T, what string, err error) {
	t.Helper()
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("%s: err = %v, want HTTP 500", what, err)
	}
	if !strings.Contains(apiErr.Message, "observer exploded") {
		t.Errorf("%s: error body %q lacks the panic value", what, apiErr.Message)
	}
	if strings.Contains(apiErr.Message, "goroutine") || strings.Contains(apiErr.Message, ".go:") {
		t.Errorf("%s: error body carries a stack trace: %q", what, apiErr.Message)
	}
}

// TestPanicBodyCarriesNoStack: a panic inside a schedule's stages fails
// the request with 500, and the body carries the panic value without the
// stack trace, which would list the daemon's source paths. A layer event
// panics inside a step-1 worker-pool job, whose error reaches the handler
// wrapped in the scheduler's "core:" stage context; it is still the
// server's fault.
func TestPanicBodyCarriesNoStack(t *testing.T) {
	for _, kind := range []obs.EventKind{obs.EventStageStart, obs.EventLayer} {
		t.Run(string(kind), func(t *testing.T) {
			_, c := newServer(t, service.Config{Observe: newPanicObserver(kind)})
			_, _, err := c.ScheduleBytes(context.Background(), tinyWire(40))
			wantPanic500(t, "schedule", err)
		})
	}
}

// TestQueueFullReturns429: with one compute slot and a one-deep queue, a
// third distinct request is shed with 429 and a Retry-After hint while the
// first two eventually complete.
func TestQueueFullReturns429(t *testing.T) {
	gate := newGateObserver()
	_, c := newServer(t, service.Config{
		Observe:   gate,
		Admission: service.AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1},
	})

	type result struct {
		body []byte
		err  error
	}
	results := make(chan result, 2)
	go func() {
		b, _, err := c.ScheduleBytes(context.Background(), tinyWire(40))
		results <- result{b, err}
	}()
	<-gate.entered // leader holds the only slot
	go func() {
		b, _, err := c.ScheduleBytes(context.Background(), tinyWire(41))
		results <- result{b, err}
	}()
	// Wait until the second request occupies the queue slot.
	waitFor(t, func() bool {
		st, err := c.Stats(context.Background())
		return err == nil && st.Queue.Queued == 1
	})

	_, _, err := c.ScheduleBytes(context.Background(), tinyWire(42))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request = %v, want HTTP 429", err)
	}
	if apiErr.Accounting.RetryAfterSeconds < 1 {
		t.Errorf("Retry-After = %d, want >= 1", apiErr.Accounting.RetryAfterSeconds)
	}
	if !apiErr.IsRetryable() {
		t.Error("429 not reported retryable")
	}

	close(gate.release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Errorf("in-flight request %d failed: %v", i, r.err)
		}
	}
}

// TestDeadlineReturns504: a request that outlives its own deadline maps to
// 504 Gateway Timeout — a designed admission-control outcome, retryable
// with a longer deadline — not a 500.
func TestDeadlineReturns504(t *testing.T) {
	gate := newGateObserver()
	_, c := newServer(t, service.Config{Observe: gate})
	wire := tinyWire(40)
	wire.DeadlineMS = 50
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.ScheduleBytes(context.Background(), wire)
		errCh <- err
	}()
	<-gate.entered                     // compute is underway…
	time.Sleep(100 * time.Millisecond) // …and its 50ms deadline lapses
	close(gate.release)                // compute unblocks into the expired context
	err := <-errCh
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline expiry = %v, want HTTP 504", err)
	}
	if !apiErr.IsRetryable() {
		t.Error("504 not reported retryable")
	}
}

// TestDisconnectCancelsCompute: a client that abandons its request cancels
// the scheduling context server-side. The handler is wrapped so the test
// can hold the compute (via the gate) until the server has demonstrably
// cancelled the request context — otherwise a cache-warm compute could win
// the race against connection-close detection.
func TestDisconnectCancelsCompute(t *testing.T) {
	gate := newGateObserver()
	svc := service.New(service.Config{Observe: gate})
	inner := httpapi.NewHandler(svc, httpapi.Options{})
	sawCancel := make(chan struct{})
	var sawOnce sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/schedule" {
			inner.ServeHTTP(w, r)
			return
		}
		// Substitute a context we cancel ourselves when the connection
		// context dies, and signal only after that cancellation has
		// propagated through the whole service context tree.
		reqCtx, reqCancel := context.WithCancel(context.Background())
		defer reqCancel()
		go func() {
			<-r.Context().Done()
			reqCancel()
			sawOnce.Do(func() { close(sawCancel) })
		}()
		inner.ServeHTTP(w, r.WithContext(reqCtx))
	}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.ScheduleBytes(ctx, tinyWire(40))
		errCh <- err
	}()
	<-gate.entered // compute is underway
	cancel()       // the client disconnects
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want context.Canceled", err)
	}
	<-sawCancel         // the server has cancelled the scheduling context
	close(gate.release) // compute unblocks into a definitively dead context
	waitFor(t, func() bool { return svc.Stats().Service.Cancelled == 1 })
	if got := svc.Stats().Service; got.Completed != 0 {
		t.Errorf("completed = %d after disconnect, want 0", got.Completed)
	}
}

// TestSSEStream: the SSE path streams ordered progress events and ends
// with result bytes identical to the plain-JSON serving of the same
// request.
func TestSSEStream(t *testing.T) {
	_, c := newServer(t, service.Config{})
	var events []obs.Event
	streamed, _, err := c.ScheduleStream(context.Background(), tinyWire(40), func(ev obs.Event) {
		events = append(events, ev)
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event %d out of order (seq %d after %d)", i, events[i].Seq, events[i-1].Seq)
		}
	}
	plain, _, err := c.ScheduleBytes(context.Background(), tinyWire(40))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, plain) {
		t.Errorf("streamed result differs from plain serving:\nsse:   %s\nplain: %s", streamed, plain)
	}
}

// TestCoalescedHeader: an identical request joining an in-flight one is
// marked X-Secured-Coalesced; the leader is not.
func TestCoalescedHeader(t *testing.T) {
	gate := newGateObserver()
	_, c := newServer(t, service.Config{Observe: gate})
	type res struct {
		acct client.Accounting
		err  error
	}
	first := make(chan res, 1)
	go func() {
		_, a, err := c.ScheduleBytes(context.Background(), tinyWire(40))
		first <- res{a, err}
	}()
	<-gate.entered
	second := make(chan res, 1)
	go func() {
		_, a, err := c.ScheduleBytes(context.Background(), tinyWire(40))
		second <- res{a, err}
	}()
	waitFor(t, func() bool {
		st, err := c.Stats(context.Background())
		return err == nil && st.Service.Coalesced >= 1
	})
	close(gate.release)
	r1, r2 := <-first, <-second
	if r1.err != nil || r2.err != nil {
		t.Fatalf("results: %v / %v", r1.err, r2.err)
	}
	if r1.acct.Coalesced {
		t.Error("leader marked coalesced")
	}
	if !r2.acct.Coalesced {
		t.Error("follower not marked X-Secured-Coalesced")
	}
}

// TestHealthAndDrain: health reports ok, flips to draining (503) after
// Drain, and a draining service sheds with 503.
func TestHealthAndDrain(t *testing.T) {
	svc, c := newServer(t, service.Config{})
	status, draining, err := c.Health(context.Background())
	if err != nil || status != "ok" || draining {
		t.Fatalf("health = (%q, %v, %v), want (ok, false, nil)", status, draining, err)
	}
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, draining, err = c.Health(context.Background())
	if err != nil || status != "draining" || !draining {
		t.Fatalf("health after drain = (%q, %v, %v), want (draining, true, nil)", status, draining, err)
	}
	_, _, err = c.ScheduleBytes(context.Background(), tinyWire(40))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("schedule while draining = %v, want HTTP 503", err)
	}
}

// TestBadRequests: malformed bodies and unknown names answer 400 with a
// JSON error envelope.
func TestBadRequests(t *testing.T) {
	_, c := newServer(t, service.Config{})
	cases := []struct {
		name string
		wire *service.ScheduleWire
	}{
		{"no network", &service.ScheduleWire{}},
		{"unknown network", &service.ScheduleWire{Network: json.RawMessage(`"nonexistent-net"`)}},
		{"unknown algorithm", func() *service.ScheduleWire {
			w := tinyWire(40)
			w.Algorithm = "Crypt-Bogus"
			return w
		}()},
		{"unknown dram", func() *service.ScheduleWire {
			w := tinyWire(40)
			w.Arch = &service.ArchWire{DRAM: "DDR9"}
			return w
		}()},
	}
	for _, tc := range cases {
		_, _, err := c.ScheduleBytes(context.Background(), tc.wire)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want HTTP 400", tc.name, err)
		} else if apiErr.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	// Syntactically broken JSON straight at the endpoint.
	resp, err := http.Post(c.BaseURL+"/v1/schedule", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestAuthBlockEndpoint: the authblock endpoint round-trips through wire
// resolution.
func TestAuthBlockEndpoint(t *testing.T) {
	_, c := newServer(t, service.Config{})
	resp, _, err := c.AuthBlock(context.Background(), &service.AuthBlockWire{
		Producer: service.ProducerWire{C: 8, H: 16, W: 16, TileC: 8, TileH: 4, TileW: 4, WritesPerTile: 1},
		Consumer: service.ConsumerWire{TileC: 8, WinH: 6, WinW: 6, StepH: 4, StepW: 4, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
		MaxU:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Optimal.U < 1 || resp.Costs.TotalBits <= 0 {
		t.Errorf("authblock response malformed: %+v", resp)
	}
	if len(resp.Sweep) != 3 || resp.SweepOrientation != "horizontal" {
		t.Errorf("sweep curve malformed: %d entries along %q", len(resp.Sweep), resp.SweepOrientation)
	}
}

// TestAuthBlockOverflowReturns500: a panic deep in an AuthBlock search
// (here the observer's, once grid sizes that overflowed the cost
// arithmetic became a 400 at validation) must fail the request with 500
// and an error body free of goroutine stacks, not kill the daemon. An
// identical retry fails the same way instead of waiting on a flight the
// panicking search left behind in the optimal memo, and the server keeps
// answering health checks and normal requests.
func TestAuthBlockOverflowReturns500(t *testing.T) {
	authblock.ResetCaches()
	ob := newPanicObserver(obs.EventAuthBlockSearch)
	_, c := newServer(t, service.Config{Observe: ob})
	wire := &service.AuthBlockWire{
		Producer: service.ProducerWire{C: 8, H: 16, W: 16, TileC: 8, TileH: 4, TileW: 4, WritesPerTile: 1},
		Consumer: service.ConsumerWire{TileC: 8, WinH: 6, WinW: 6, StepH: 4, StepW: 4, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for attempt := 0; attempt < 2; attempt++ {
		_, _, err := c.AuthBlock(ctx, wire)
		wantPanic500(t, fmt.Sprintf("attempt %d", attempt), err)
	}
	resp, err := http.Get(c.BaseURL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health after the failed request = HTTP %d", resp.StatusCode)
	}
	ob.armed.Store(false)
	if _, _, err := c.AuthBlock(ctx, wire); err != nil {
		t.Fatalf("normal request after the failed one: %v", err)
	}
}

// TestAuthBlockHugeCurveReturns413: a /v1/authblock body asking for a
// 10^9-entry cost curve is refused with 413 at admission (allocating the
// curve would exhaust the process's memory), and the next normal request
// is served.
func TestAuthBlockHugeCurveReturns413(t *testing.T) {
	_, c := newServer(t, service.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err := c.AuthBlock(ctx, &service.AuthBlockWire{
		Producer: service.ProducerWire{C: 1, H: 30, W: 30, TileC: 1, TileH: 30, TileW: 30, WritesPerTile: 1},
		Consumer: service.ConsumerWire{TileC: 1, WinH: 30, WinW: 30, StepH: 30, StepW: 30,
			CountC: 1, CountH: 1, CountW: 1, FetchesPerTile: 1},
		MaxU: 1_000_000_000,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge curve: err = %v, want HTTP 413", err)
	}
	if _, _, err := c.AuthBlock(ctx, &service.AuthBlockWire{
		Producer: service.ProducerWire{C: 8, H: 16, W: 16, TileC: 8, TileH: 4, TileW: 4, WritesPerTile: 1},
		Consumer: service.ConsumerWire{TileC: 8, WinH: 6, WinW: 6, StepH: 4, StepW: 4, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
		MaxU:     64,
	}); err != nil {
		t.Fatalf("normal request after the refused one: %v", err)
	}
}

// benchStats mirrors daemonStats in bench/load.go: the part of /v1/stats
// the benchmark driver decodes, under the same JSON names.
type benchStats struct {
	Service struct {
		Admitted  int64 `json:"admitted"`
		Coalesced int64 `json:"coalesced"`
		StoreHits int64 `json:"store_hits"`
	} `json:"service"`
	MapperSearch benchCache `json:"mapper_search_cache"`
	MapperTile   benchCache `json:"mapper_tile_cache"`
	MapperWarm   benchCache `json:"mapper_warm_store"`
	Guided       struct {
		Evaluated int64 `json:"evaluated"`
		Pruned    int64 `json:"pruned"`
	} `json:"guided_search"`
	AuthOptimal benchCache `json:"authblock_optimal"`
	AuthDecomp  benchCache `json:"authblock_decomp"`
	SweepPrune  struct {
		Bounded   int64 `json:"bounded"`
		Pruned    int64 `json:"pruned"`
		FullEvals int64 `json:"full_evals"`
	} `json:"sweep_prune"`
	Store struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Puts   int64 `json:"puts"`
		Bytes  int64 `json:"bytes"`
	} `json:"store"`
}

type benchCache struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Shared int64 `json:"shared"`
	Runs   int64 `json:"runs"`
}

func (c benchCache) lookups() int64 { return c.Hits + c.Misses + c.Shared }

// boundStats is the search-floor memo's entry in /v1/stats, which the
// benchmark driver does not decode.
type boundStats struct {
	MapperBound benchCache `json:"mapper_bound_cache"`
}

// getStats decodes /v1/stats into a T.
func getStats[T any](t *testing.T, base string) T {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st T
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsBenchContract guards the benchmark driver's reading of
// /v1/stats: after one guided schedule, one front-only sweep and one
// authblock request against a daemon with a store, every cache the driver
// reads reports lookups under the names it decodes. (Only guided searches
// consult the warm store.) The sweep's bound pre-pass also shows as
// mapper_bound_cache lookups, a name the driver does not decode.
func TestStatsBenchContract(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, c := newServer(t, service.Config{Store: st})
	mapper.ResetCaches()
	authblock.ResetCaches()
	before, boundBefore := getStats[benchStats](t, c.BaseURL), getStats[boundStats](t, c.BaseURL)

	ctx := context.Background()
	sched := tinyWire(40)
	sched.Mapper = &service.MapperWire{Mode: "guided"}
	if _, _, err := c.ScheduleBytes(ctx, sched); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if _, _, err := c.SweepBytes(ctx, &service.SweepWire{
		Network:          tinyWire(40).Network,
		Specs:            []service.ArchWire{{}, {PEsX: 16, PEsY: 14}},
		Cryptos:          []service.CryptoWire{{Engine: "pipelined"}},
		AnnealIterations: 20,
		Front:            true,
	}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if _, _, err := c.AuthBlockBytes(ctx, &service.AuthBlockWire{
		Producer: service.ProducerWire{C: 8, H: 16, W: 16, TileC: 8, TileH: 4, TileW: 4, WritesPerTile: 1},
		Consumer: service.ConsumerWire{TileC: 8, WinH: 6, WinW: 6, StepH: 4, StepW: 4, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
	}); err != nil {
		t.Fatalf("authblock: %v", err)
	}
	after, boundAfter := getStats[benchStats](t, c.BaseURL), getStats[boundStats](t, c.BaseURL)

	for _, tc := range []struct {
		name  string
		delta int64
	}{
		{"service.admitted", after.Service.Admitted - before.Service.Admitted},
		{"mapper_search_cache lookups", after.MapperSearch.lookups() - before.MapperSearch.lookups()},
		{"mapper_tile_cache lookups", after.MapperTile.lookups() - before.MapperTile.lookups()},
		{"mapper_warm_store lookups", after.MapperWarm.lookups() - before.MapperWarm.lookups()},
		{"mapper_bound_cache lookups", boundAfter.MapperBound.lookups() - boundBefore.MapperBound.lookups()},
		{"guided_search.evaluated", after.Guided.Evaluated - before.Guided.Evaluated},
		{"authblock_optimal lookups", after.AuthOptimal.lookups() - before.AuthOptimal.lookups()},
		{"authblock_optimal.runs", after.AuthOptimal.Runs - before.AuthOptimal.Runs},
		{"authblock_decomp lookups", after.AuthDecomp.lookups() - before.AuthDecomp.lookups()},
		{"sweep_prune.bounded", after.SweepPrune.Bounded - before.SweepPrune.Bounded},
		{"sweep_prune.full_evals", after.SweepPrune.FullEvals - before.SweepPrune.FullEvals},
		{"store lookups", after.Store.Hits + after.Store.Misses - before.Store.Hits - before.Store.Misses},
		{"store.puts", after.Store.Puts - before.Store.Puts},
		{"store.bytes", after.Store.Bytes - before.Store.Bytes},
	} {
		if tc.delta <= 0 {
			t.Errorf("%s moved by %d, want a positive count", tc.name, tc.delta)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for condition")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
