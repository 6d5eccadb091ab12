package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"secureloop/internal/arch"
	"secureloop/internal/authblock"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/workload"
)

// coldMemos drops the process-wide memos, so the next request's searches
// actually run instead of hitting an earlier test's results.
func coldMemos() {
	mapper.ResetCaches()
	authblock.ResetCaches()
}

// chainNetwork is a chain of 3x3 conv layers whose channel counts step
// through chans. Networks built from disjoint channel counts share no
// layer shape, mapper search or AuthBlock grid pair.
func chainNetwork(name string, chans ...int) *workload.Network {
	net := &workload.Network{Name: name}
	var seg []int
	for i := 0; i+1 < len(chans); i++ {
		net.Layers = append(net.Layers, workload.Layer{
			Name: name + "-l" + string(rune('0'+i)), C: chans[i], M: chans[i+1], R: 3, S: 3, P: 7, Q: 7,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, N: 1, WordBits: 16,
		})
		seg = append(seg, i)
	}
	net.Segments = [][]int{seg}
	return net
}

func chainScheduleRequest(net *workload.Network) *ScheduleRequest {
	req := tinyScheduleRequest()
	req.Network = net
	return req
}

// finisher returns a function that waits for a submission, failing t on
// any error, and returns the submission's accounting.
func finisher(t *testing.T) func(*Pending, error) Accounting {
	return func(p *Pending, err error) Accounting {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, err := p.Result(); err != nil {
			t.Fatal(err)
		}
		return p.Accounting()
	}
}

// mappingBarrier holds every request at the start of step 1 until two have
// arrived, so their searches provably overlap.
type mappingBarrier struct {
	mu      sync.Mutex
	arrived int
	all     chan struct{}
	late    bool // guarded by mu
}

func (b *mappingBarrier) Observe(e obs.Event) {
	if e.Kind != obs.EventStageStart || e.Stage.Stage != obs.StageMapping {
		return
	}
	b.mu.Lock()
	b.arrived++
	if b.arrived == 2 {
		close(b.all)
	}
	b.mu.Unlock()
	select {
	case <-b.all:
	case <-time.After(10 * time.Second):
		b.mu.Lock()
		b.late = true
		b.mu.Unlock()
	}
}

// TestAccountingPerRequestUnderOverlap: two schedule requests on disjoint
// layer shapes, computed at the same time on cold memos, each report
// exactly the work they report when run alone. A process-wide counter
// would mix the two.
func TestAccountingPerRequestUnderOverlap(t *testing.T) {
	finish := finisher(t)
	defer coldMemos()
	reqs := []*ScheduleRequest{
		chainScheduleRequest(chainNetwork("a", 8, 16, 8)),
		chainScheduleRequest(chainNetwork("b", 24, 40, 24)),
	}
	alone := make([]Accounting, len(reqs))
	for i, req := range reqs {
		coldMemos()
		alone[i] = finish(New(Config{}).BeginSchedule(context.Background(), req, SubmitOptions{}))
		if alone[i].MapperSearches == 0 || alone[i].AuthBlockSearches == 0 {
			t.Fatalf("request %d alone ran no searches: %+v", i, alone[i])
		}
	}
	if alone[0] == alone[1] {
		t.Fatalf("both requests report %+v; pick requests that differ", alone[0])
	}

	coldMemos()
	barrier := &mappingBarrier{all: make(chan struct{})}
	svc := New(Config{Observe: barrier, Admission: AdmissionConfig{MaxConcurrent: 2}})
	pending := make([]*Pending, len(reqs))
	for i, req := range reqs {
		p, err := svc.BeginSchedule(context.Background(), req, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	for i, p := range pending {
		if got := finish(p, nil); got != alone[i] {
			t.Errorf("request %d overlapped: %+v, alone: %+v", i, got, alone[i])
		}
	}
	barrier.mu.Lock()
	defer barrier.mu.Unlock()
	if barrier.late {
		t.Fatal("the two requests never overlapped")
	}
}

// TestStatsSumRequestAccounting: over a serial guided schedule, front sweep
// and authblock request, the /v1/stats work counters move by exactly the
// sum of the three requests' accounting.
func TestStatsSumRequestAccounting(t *testing.T) {
	finish := finisher(t)
	coldMemos()
	defer coldMemos()
	svc := New(Config{})
	before := svc.Stats()

	sched := chainScheduleRequest(chainNetwork("sum", 8, 16, 8))
	sched.Mapper = mapper.Options{Mode: mapper.Guided}
	base := arch.Base()
	sweep := &SweepRequest{
		Network:          chainNetwork("sum-sweep", 12, 20, 12),
		Specs:            []arch.Spec{base, base.WithPEs(16, 14)},
		Cryptos:          []cryptoengine.Config{{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1}},
		Algorithm:        core.CryptOptCross,
		AnnealIterations: 20,
		Front:            true,
	}
	ab := &AuthBlockRequest{
		Producer: authblock.ProducerGrid{C: 8, H: 16, W: 16, TileC: 8, TileH: 4, TileW: 4, WritesPerTile: 1},
		Consumer: authblock.ConsumerGrid{TileC: 8, WinH: 6, WinW: 6, StepH: 4, StepW: 4, CountC: 1, CountH: 3, CountW: 3, FetchesPerTile: 1},
		Params:   authblock.DefaultParams(),
	}
	var sum Accounting
	sum = sum.add(finish(svc.BeginSchedule(context.Background(), sched, SubmitOptions{})))
	sweepAcct := finish(svc.BeginSweep(context.Background(), sweep, SubmitOptions{}))
	if sweepAcct.Sweep.Bounded == 0 || sweepAcct.Sweep.FullEvals == 0 {
		t.Errorf("front sweep accounting %+v, want bounded points and full evaluations", sweepAcct.Sweep)
	}
	sum = sum.add(sweepAcct)
	sum = sum.add(finish(svc.BeginAuthBlock(context.Background(), ab, SubmitOptions{})))
	after := svc.Stats()

	want := workDelta{
		guided: GuidedStatsBody{Searches: sum.MapperSearches, Evaluated: sum.Evaluated, Pruned: sum.Pruned,
			Skipped: sum.Skipped, WarmSeeds: sum.WarmSeeds},
		runs: sum.AuthBlockSearches,
		sweep: PruneStatsBody{Bounded: int64(sum.Sweep.Bounded), Pruned: int64(sum.Sweep.Pruned),
			Deferred: int64(sum.Sweep.Deferred), Reevaluated: int64(sum.Sweep.Reevaluated),
			FullEvals: int64(sum.Sweep.FullEvals), StoreHits: int64(sum.Sweep.StoreHits)},
	}
	if got := statsWork(before, after); got != want {
		t.Errorf("/v1/stats moved by %+v, the requests' accounting sums to %+v", got, want)
	}
	if sum.Evaluated == 0 || sum.AuthBlockSearches == 0 {
		t.Errorf("the three requests ran no searches: %+v", sum)
	}
}

// workDelta is the work-counter part of a /v1/stats difference.
type workDelta struct {
	guided GuidedStatsBody
	runs   int64
	sweep  PruneStatsBody
}

func statsWork(a, b Stats) workDelta {
	return workDelta{
		guided: GuidedStatsBody{
			Searches:  b.GuidedSearch.Searches - a.GuidedSearch.Searches,
			Evaluated: b.GuidedSearch.Evaluated - a.GuidedSearch.Evaluated,
			Pruned:    b.GuidedSearch.Pruned - a.GuidedSearch.Pruned,
			Skipped:   b.GuidedSearch.Skipped - a.GuidedSearch.Skipped,
			WarmSeeds: b.GuidedSearch.WarmSeeds - a.GuidedSearch.WarmSeeds,
		},
		runs: b.AuthOptimal.Runs - a.AuthOptimal.Runs,
		sweep: PruneStatsBody{
			Bounded:     b.SweepPrune.Bounded - a.SweepPrune.Bounded,
			Pruned:      b.SweepPrune.Pruned - a.SweepPrune.Pruned,
			Deferred:    b.SweepPrune.Deferred - a.SweepPrune.Deferred,
			Reevaluated: b.SweepPrune.Reevaluated - a.SweepPrune.Reevaluated,
			FullEvals:   b.SweepPrune.FullEvals - a.SweepPrune.FullEvals,
			StoreHits:   b.SweepPrune.StoreHits - a.SweepPrune.StoreHits,
		},
	}
}

// TestFollowerSharesLeaderAccounting: a request coalesced onto another's
// flight reports the leader's accounting, and /v1/stats counts the
// flight's work once.
func TestFollowerSharesLeaderAccounting(t *testing.T) {
	finish := finisher(t)
	coldMemos()
	defer coldMemos()
	gate := newGateObserver()
	svc := New(Config{Observe: gate})
	before := svc.Stats()
	req := func() *ScheduleRequest { return chainScheduleRequest(chainNetwork("follow", 8, 16, 8)) }

	p1, err := svc.BeginSchedule(context.Background(), req(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	p2, err := svc.BeginSchedule(context.Background(), req(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitForCounter(t, &svc.coalesced, 1)
	close(gate.release)

	leader, follower := finish(p1, nil), finish(p2, nil)
	if leader.MapperSearches == 0 || leader.AuthBlockSearches == 0 {
		t.Fatalf("leader ran no searches: %+v", leader)
	}
	if follower != leader {
		t.Errorf("follower accounting %+v, leader %+v", follower, leader)
	}
	got := statsWork(before, svc.Stats())
	if got.guided.Searches != leader.MapperSearches || got.guided.Evaluated != leader.Evaluated || got.runs != leader.AuthBlockSearches {
		t.Errorf("/v1/stats moved by %+v, want the flight's %+v once", got, leader)
	}
}

// TestSweepAccountingIncludesPoints: a guided sweep's accounting counts the
// mapper and AuthBlock searches of its design points, while its progress
// stream stays at sweep level — the per-point schedulers start no stage in
// it.
func TestSweepAccountingIncludesPoints(t *testing.T) {
	finish := finisher(t)
	coldMemos()
	defer coldMemos()
	svc := New(Config{})
	base := arch.Base()
	req := &SweepRequest{
		Network:          chainNetwork("points", 8, 16, 8),
		Specs:            []arch.Spec{base, base.WithPEs(16, 14)},
		Cryptos:          []cryptoengine.Config{{Engine: cryptoengine.Pipelined(), CountPerDatatype: 1}},
		Algorithm:        core.CryptOptCross,
		AnnealIterations: 20,
		Mapper:           mapper.Options{Mode: mapper.Guided},
	}
	p, err := svc.BeginSweep(context.Background(), req, SubmitOptions{Events: true})
	if err != nil {
		t.Fatal(err)
	}
	var starts []obs.Stage
	for ev := range p.Events() {
		if ev.Kind == obs.EventStageStart {
			starts = append(starts, ev.Stage.Stage)
		}
	}
	a := finish(p, nil)
	if len(starts) != 1 || starts[0] != obs.StageSweep {
		t.Errorf("stage_start events %v, want only %q", starts, obs.StageSweep)
	}
	// Two specs, each with a secure point and an unsecure baseline, over
	// two distinct layer shapes.
	if a.MapperSearches < 4 || a.AuthBlockSearches == 0 {
		t.Errorf("sweep accounting %+v misses its points' searches", a)
	}
	if a.Sweep.Points != 2 || a.Sweep.FullEvals != 2 {
		t.Errorf("sweep coordinator accounting %+v, want 2 points fully evaluated", a.Sweep)
	}
}

// TestLabelledRequestsDoNotCoalesce: two concurrent schedule requests that
// differ only in the architecture's name do not share a flight, so each
// gets its own name back.
func TestLabelledRequestsDoNotCoalesce(t *testing.T) {
	gate := newGateObserver()
	svc := New(Config{Observe: gate, Admission: AdmissionConfig{MaxConcurrent: 2}})
	named := func(name string) *ScheduleRequest {
		req := tinyScheduleRequest()
		req.Spec.Name = name
		return req
	}
	p1, err := svc.BeginSchedule(context.Background(), named("first"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the first request is mid-compute, its flight registered
	p2, err := svc.BeginSchedule(context.Background(), named("second"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	for _, tc := range []struct {
		p    *Pending
		name string
	}{{p1, "first"}, {p2, "second"}} {
		resp, _, err := await[ScheduleResponse](tc.p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Arch != tc.name {
			t.Errorf("request named %q got arch %q back", tc.name, resp.Arch)
		}
	}
	if c := svc.Stats().Service; c.Coalesced != 0 {
		t.Errorf("%d requests coalesced across different names", c.Coalesced)
	}
}
