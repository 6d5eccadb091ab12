// Package secureloop is the public API of SecureLoop-Go, a from-scratch
// reproduction of "SecureLoop: Design Space Exploration of Secure DNN
// Accelerators" (MICRO 2023). It schedules DNN workloads onto spatial
// accelerators whose off-chip traffic passes through AES-GCM cryptographic
// engines, searching loopnest schedules, authentication-block assignments
// and cross-layer combinations for the best secure design.
//
// The typical flow:
//
//	net := secureloop.MobileNetV2()
//	spec := secureloop.BaseArch()
//	crypto := secureloop.CryptoConfig{Engine: secureloop.ParallelEngine(), CountPerDatatype: 1}
//	s := secureloop.NewScheduler(spec, crypto)
//	res, err := s.ScheduleNetwork(net, secureloop.CryptOptCross)
//
// Long searches are cancellable: ScheduleNetworkCtx accepts a
// context.Context, stops at the next stage boundary when it is cancelled,
// and returns ctx.Err() wrapped with the stage the search reached. Progress
// is observable by setting the scheduler's Observe field to an Observer
// (for example one built with NewProgressLogger):
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	s.Observe = secureloop.NewProgressLogger(os.Stderr)
//	res, err := s.ScheduleNetworkCtx(ctx, net, secureloop.CryptOptCross)
//
// The result carries per-layer loopnest schedules, AuthBlock assignments,
// latency/energy statistics and the authentication-traffic breakdown.
// Design-space sweeps are exported too: Sweep evaluates a (spec, crypto)
// cross product and, with Prune set, returns the same Pareto front while
// skipping points a cheap lower bound proves cannot reach it. Deeper
// functionality (the AuthBlock search, the roofline model, the functional
// AES-GCM data path) lives in the internal packages and is exercised by the
// cmd/ binaries and examples/.
//
// For long-lived deployments, cmd/secured wraps the same searches in an
// HTTP/JSON daemon (internal/service): typed requests, a bounded admission
// queue, singleflight coalescing of identical in-flight requests, SSE
// progress streaming, and warm answers from a shared persistent store.
// Programs talk to it over HTTP: the typed Go client in
// internal/service/client is internal, so only this module's tests can
// import it.
package secureloop

import (
	"context"
	"io"

	"secureloop/internal/arch"
	"secureloop/internal/core"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/dse"
	"secureloop/internal/mapper"
	"secureloop/internal/obs"
	"secureloop/internal/store"
	"secureloop/internal/workload"
)

// Scheduler runs the three-step SecureLoop search (crypto-aware loopnest
// scheduling, optimal AuthBlock assignment, cross-layer annealing).
type Scheduler = core.Scheduler

// NetworkResult is a scheduled network with totals and per-layer schedules.
type NetworkResult = core.NetworkResult

// LayerResult is one layer's schedule and cost.
type LayerResult = core.LayerResult

// Algorithm selects a Table 1 scheduling algorithm.
type Algorithm = core.Algorithm

// The scheduling algorithms (paper Table 1) plus the unsecure baseline.
const (
	Unsecure        = core.Unsecure
	CryptTileSingle = core.CryptTileSingle
	CryptOptSingle  = core.CryptOptSingle
	CryptOptCross   = core.CryptOptCross
)

// Objective selects the fine-tuning cost function.
type Objective = core.Objective

// The fine-tuning objectives.
const (
	MinLatency = core.MinLatency
	MinEDP     = core.MinEDP
)

// MapperOptions selects the per-layer loopnest search strategy (the
// scheduler's Mapper field). Both modes run the same best-first search. The
// zero value is the exhaustive search, which returns the exact top-k on
// every layer. Set Mode to GuidedSearch to seed each search from the
// warm-start store of previous searches over similar layer shapes. At the
// default Epsilon = 0 it returns the exhaustive search's results, except on
// layers whose stride exceeds the filter extent (ResNet-18's 1×1 stride-2
// downsamples), where a schedule's answer can depend on which searches ran
// before it. A sweep runs every design point without warm starts, so a
// guided sweep's points depend on the sweep alone:
//
//	s := secureloop.NewScheduler(spec, crypto)
//	s.Mapper = secureloop.MapperOptions{Mode: secureloop.GuidedSearch}
//
// Epsilon > 0 relaxes the guided search further: each returned schedule's
// scheduling cycles may exceed the exhaustive result's by at most a factor
// of (1 + Epsilon). The exhaustive search ignores Epsilon.
type MapperOptions = mapper.Options

// The loopnest search modes.
const (
	ExhaustiveSearch = mapper.Exhaustive
	GuidedSearch     = mapper.Guided
)

// ArchSpec describes a spatial DNN accelerator.
type ArchSpec = arch.Spec

// DRAMTech is an off-chip memory technology.
type DRAMTech = arch.DRAMTech

// CryptoConfig deploys AES-GCM engines (one group per datatype).
type CryptoConfig = cryptoengine.Config

// CryptoEngine is one AES-GCM engine microarchitecture (Table 2).
type CryptoEngine = cryptoengine.EngineArch

// Observer receives events from a running search through its one method,
// Observe(Event). An event's Kind names its payload: progress (stage
// start and end, per-layer completion, annealing progress, sweep points)
// and the work-count kinds EventMapperSearch and EventAuthBlockSearch, one
// event per mapper or AuthBlock search that actually ran for this request
// (a search a cache answered reports nothing). An observer switches on
// Kind and ignores the kinds it does not want:
//
//	type searchCounter struct{ n atomic.Int64 }
//
//	func (c *searchCounter) Observe(e secureloop.Event) {
//		if e.Kind == secureloop.EventMapperSearch {
//			c.n.Add(1)
//		}
//	}
//
// Implementations must be safe for concurrent use and must not modify an
// event's payload; events carry no wall-clock state, so an observed run
// stays byte-identical to an unobserved one.
type Observer = obs.Observer

// Event is one observed event: Kind names the payload, and exactly the
// payload field Kind names (Stage, Layer, Anneal, Mapper or Sweep) is set;
// EventAuthBlockSearch carries none.
type Event = obs.Event

// EventKind names the payload an Event carries.
type EventKind = obs.EventKind

// The event kinds.
const (
	EventStageStart      = obs.EventStageStart
	EventStageEnd        = obs.EventStageEnd
	EventLayer           = obs.EventLayer
	EventAnneal          = obs.EventAnneal
	EventMapperSearch    = obs.EventMapperSearch
	EventSweepPoint      = obs.EventSweepPoint
	EventAuthBlockSearch = obs.EventAuthBlockSearch
)

// NewProgressLogger returns an Observer that renders progress events as
// human-readable lines on w (the cmd binaries' -progress output).
func NewProgressLogger(w io.Writer) Observer { return obs.NewLogger(w) }

// ResultStore is a persistent content-addressed result store. Assign one to
// a scheduler's Store field and identical scheduling requests — whole-network
// schedules, per-layer loopnest searches, AuthBlock assignments — resolve
// from disk across processes and restarts, byte-identical to the searches
// they replace:
//
//	st, err := secureloop.OpenResultStore(".secureloop-store", secureloop.StoreOptions{})
//	if err != nil { ... }
//	defer st.Close()
//	s := secureloop.NewScheduler(spec, crypto)
//	s.Store = st
//
// The store is safe for concurrent use by any number of schedulers; a
// corrupt or torn record (for example after a crash) is dropped and
// recomputed, never fatal.
type ResultStore = store.Store

// StoreOptions tunes a result store: MaxBytes bounds the on-disk footprint
// (oldest segments are evicted beyond it), SegmentBytes sets the log
// rotation threshold. Zero values select the defaults.
type StoreOptions = store.Options

// StoreStats is a snapshot of a store's counters (hits, misses, puts,
// corruption drops, evictions) and footprint.
type StoreStats = store.Stats

// OpenResultStore opens (creating if needed) the persistent result store in
// dir. Call Close to fsync the log and release the segment files.
func OpenResultStore(dir string, opt StoreOptions) (*ResultStore, error) {
	return store.Open(dir, opt)
}

// DesignPoint is one evaluated secure-accelerator design from a
// design-space sweep: the (architecture, crypto) pair with its area,
// latency, energy, unsecure baseline and Pareto-front membership.
type DesignPoint = dse.DesignPoint

// SweepOptions tunes a design-space sweep: annealing iterations, mapper
// mode, worker-pool width, persistent store, progress observer and
// dominance pruning.
type SweepOptions = dse.Options

// SweepResult is a sweep's outcome: the evaluated points in canonical
// specs-major order with the front marked, the Pareto front itself, and the
// run's pruning accounting.
type SweepResult = dse.SweepResult

// SweepStats is a sweep's work accounting: points bounded, pruned,
// deferred, re-evaluated, fully evaluated and store-answered.
type SweepStats = dse.FrontStats

// Sweep evaluates the cross product of architectures and crypto configs on
// one workload. Every evaluated point comes back in deterministic
// specs-major order with its Pareto field set. With Prune set, a cheap
// bound pre-pass and a streaming Pareto front let the sweep skip design
// points that cannot reach the front; the returned front is byte-identical
// to the unpruned sweep's:
//
//	res, err := secureloop.Sweep(ctx, net, specs, cryptos,
//	    secureloop.CryptOptCross, secureloop.SweepOptions{Prune: true})
func Sweep(ctx context.Context, net *Network, specs []ArchSpec, cryptos []CryptoConfig, alg Algorithm, opt SweepOptions) (SweepResult, error) {
	return dse.Sweep(ctx, net, specs, cryptos, alg, opt)
}

// Figure16Space returns the design space of the paper's final trade-off
// study over base: PE arrays {14x12, 14x24, 28x24} x GLB {16, 32, 131 kB},
// and crypto engines {pipelined x1, parallel x1, serial x30}.
func Figure16Space(base ArchSpec) ([]ArchSpec, []CryptoConfig) { return dse.Figure16Space(base) }

// MarkParetoFront sets each point's Pareto field: true iff no other point
// has both smaller-or-equal area and smaller-or-equal latency with at
// least one strict. The marking is a pure function of the multiset of
// points, independent of their order.
func MarkParetoFront(points []DesignPoint) { dse.MarkPareto(points) }

// ParetoFront returns the Pareto-optimal points sorted by ascending area.
func ParetoFront(points []DesignPoint) []DesignPoint { return dse.ParetoFront(points) }

// Network is a DNN workload with its segment structure.
type Network = workload.Network

// Layer is one convolutional layer.
type Layer = workload.Layer

// NewScheduler returns a scheduler with the paper's default knobs (k=6,
// 1000 annealing iterations).
func NewScheduler(spec ArchSpec, crypto CryptoConfig) *Scheduler {
	return core.New(spec, crypto)
}

// BaseArch returns the paper's base configuration: Eyeriss-derived 14x12 PE
// array, 131 kB buffer, LPDDR4 at 64 B/cycle, 100 MHz.
func BaseArch() ArchSpec { return arch.Base() }

// The Table 2 cryptographic engines.
func PipelinedEngine() CryptoEngine { return cryptoengine.Pipelined() }
func ParallelEngine() CryptoEngine  { return cryptoengine.Parallel() }
func SerialEngine() CryptoEngine    { return cryptoengine.Serial() }

// The evaluation workloads (VGG16 is an extension beyond the paper's set).
func AlexNet() *Network     { return workload.AlexNet() }
func ResNet18() *Network    { return workload.ResNet18() }
func MobileNetV2() *Network { return workload.MobileNetV2() }
func VGG16() *Network       { return workload.VGG16() }

// NetworkByName resolves "alexnet", "resnet18", "mobilenetv2" or "vgg16".
func NetworkByName(name string) (*Network, error) { return workload.ByName(name) }

// LoadNetworkJSON reads a custom network description (see the JSON schema
// in internal/workload: layers with c/m/r/s/p/q, stride, pad, depthwise,
// cut_after segment markers).
func LoadNetworkJSON(path string) (*Network, error) { return workload.LoadJSON(path) }
