package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"secureloop/internal/arch"
	"secureloop/internal/num"
	nets "secureloop/internal/workload"
)

// request is one generated request. Its identity is path plus body: every
// answer to the same identity must carry the same bytes, whether it was
// computed, coalesced, replayed from the store or streamed over SSE.
type request struct {
	path string
	body []byte
	sse  bool
}

func (r request) key() string { return r.path + " " + string(r.body) }

// workload is one traffic mix. Closed loops run clients back-to-back
// requests; open loops send at a fixed rate whatever the daemon's pace.
type workload struct {
	name    string
	clients int // closed-loop clients (0: open loop)
	// rate is requests per second of run time: an open loop's arrival
	// rate, and what sizes a closed loop's fixed number of requests.
	rate float64
	// golden is the length of the measured-stream prefix the golden hash
	// covers; a workload with a fill phase hashes its fill instead.
	golden int
	gen    func(seed uint64, scale float64) *stream
}

// workloads lists the benchmark's traffic mixes in BENCHMARK.json order.
// Load always comes from this one process over at most two connections,
// the daemon's core count.
//
// store-warm is a closed loop with one client. Its answers take about a
// quarter of a millisecond, so at an open loop's pace both cores would sit
// idle between requests, and most of each request's latency would be the
// time a halted virtual CPU takes to wake up again. That time moves with
// the load of the other tenants of the host, not with the code under test.
var workloads = []*workload{
	{name: "schedule-cold", clients: 2, rate: 3.2, golden: 24, gen: scheduleCold},
	{name: "sweep-front", clients: 1, rate: 1.0, golden: 3, gen: sweepFront},
	{name: "store-warm", clients: 1, rate: 1200, gen: storeWarm},
	{name: "authblock-open", rate: 200, golden: 400, gen: authblockOpen},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream is a workload's deterministic request sequence. fill is sent once
// before a daemon restart (store-warm only); the measured sequence is
// generated lazily, one seeded block at a time, so a run can draw as many
// requests as its time allows.
type stream struct {
	fill []request

	mu   sync.Mutex
	reqs []request                      // guarded by mu
	more func(reqs []request) []request // appends one block; called under mu
}

func (s *stream) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = s.more(s.reqs)
	}
	return s.reqs[i]
}

// rng is SplitMix64. The benchmark carries its own generator so that the
// requests a seed produces never change with the Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, name string, block int) *rng {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(block)<<40}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns 0..n-1 in seeded order.
func (r *rng) perm(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	r.shuffle(xs)
	return xs
}

func (r *rng) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// deal returns n level indices in seeded order, level l appearing in
// exact proportion to weights[l]. Dealing every factor of a block this way,
// instead of drawing each request independently, pins each factor's mix per
// block, so different seeds load the daemon alike.
func (r *rng) deal(n int, weights ...int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]int, 0, n)
	for l, w := range weights {
		for j := 0; j < num.MulInt(n, w)/total; j++ {
			out = append(out, l)
		}
	}
	r.shuffle(out)
	return out
}

// Wire shapes of the daemon's JSON API, declared here rather than imported
// so the benchmark's inputs cannot drift with the code it measures.
type archWire struct {
	Name              string `json:"name,omitempty"`
	PEsX              int    `json:"pes_x,omitempty"`
	PEsY              int    `json:"pes_y,omitempty"`
	GlobalBufferBytes int    `json:"global_buffer_bytes,omitempty"`
	DRAM              string `json:"dram,omitempty"`
}

type cryptoWire struct {
	Engine string `json:"engine"`
	Count  int    `json:"count,omitempty"`
}

type mapperWire struct {
	Mode string `json:"mode"`
}

type scheduleWire struct {
	Network   string      `json:"network"`
	Arch      *archWire   `json:"arch,omitempty"`
	Crypto    *cryptoWire `json:"crypto,omitempty"`
	Algorithm string      `json:"algorithm,omitempty"`
	Objective string      `json:"objective,omitempty"`
	Mapper    *mapperWire `json:"mapper,omitempty"`
}

type sweepWire struct {
	Network          string       `json:"network"`
	Specs            []archWire   `json:"specs,omitempty"`
	Cryptos          []cryptoWire `json:"cryptos,omitempty"`
	AnnealIterations int          `json:"anneal_iterations"`
	Mapper           *mapperWire  `json:"mapper,omitempty"`
	Front            bool         `json:"front"`
}

type producerWire struct {
	C             int `json:"c"`
	H             int `json:"h"`
	W             int `json:"w"`
	TileC         int `json:"tile_c"`
	TileH         int `json:"tile_h"`
	TileW         int `json:"tile_w"`
	WritesPerTile int `json:"writes_per_tile"`
}

type consumerWire struct {
	TileC          int `json:"tile_c"`
	WinH           int `json:"win_h"`
	WinW           int `json:"win_w"`
	StepH          int `json:"step_h"`
	StepW          int `json:"step_w"`
	OffH           int `json:"off_h,omitempty"`
	OffW           int `json:"off_w,omitempty"`
	CountC         int `json:"count_c"`
	CountH         int `json:"count_h"`
	CountW         int `json:"count_w"`
	FetchesPerTile int `json:"fetches_per_tile"`
}

type authblockWire struct {
	Producer    producerWire `json:"producer"`
	Consumer    consumerWire `json:"consumer"`
	Orientation string       `json:"orientation,omitempty"`
	MaxU        int          `json:"max_u,omitempty"`
}

func post(path string, v any, sse bool) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire structs above always marshal
	}
	return request{path: path, body: body, sse: sse}
}

var (
	networks   = []string{"alexnet", "resnet18", "mobilenetv2"}
	glbKB      = []int{16, 32, 64, 96, 131}
	cryptos    = []cryptoWire{{"pipelined", 1}, {"parallel", 1}, {"parallel", 4}, {"serial", 30}}
	algorithms = []string{"Crypt-Opt-Cross", "Crypt-Opt-Single", "Crypt-Tile-Single"}
	objectives = []string{"latency", "edp"}
	guided     = &mapperWire{Mode: "guided"}
)

// spec builds an architecture override. The name is derived from the
// numbers alone: names are labels outside the daemon's request identity, so
// two requests with equal numbers must also carry equal names for their
// answers to be byte-identical.
func spec(pe [2]int, glb int, dram string) archWire {
	name := fmt.Sprintf("eyeriss-pe%dx%d-glb%dkB", pe[0], pe[1], glb)
	if dram != "" {
		name += "-" + dram
	}
	return archWire{Name: name, PEsX: pe[0], PEsY: pe[1], GlobalBufferBytes: glb * 1024, DRAM: dram}
}

// dram64 names a DRAM technology: the 128 B/cycle LPDDR4 when wide, else
// one of the two 64 B/cycle technologies, drawn from r.
func dram64(r *rng, wide bool) string {
	if wide {
		return arch.LPDDR4x128.Name
	}
	return []string{arch.LPDDR4x64.Name, arch.HBM2x64.Name}[r.intn(2)]
}

// scheduleBlock is the period over which every schedule factor's mix is
// exact: the least common multiple of the factors' level counts and
// weights.
const scheduleBlock = 60

// scheduleCold draws /v1/schedule requests over networks, PE arrays, GLB
// sizes, DRAM technologies, crypto engines, algorithms (Cross 60 /
// Opt-Single 20 / Tile-Single 20), objectives (latency 80 / edp 20) and
// mapper modes (server default 75 / guided 25). A quarter repeat one of the
// previous eight requests, so coalescing and store hits occur at a
// seed-fixed rate.
//
// A request's cost spans two orders of magnitude with everything that
// shapes its search — network, mapper mode, algorithm, PE array, GLB,
// crypto engine, DRAM bandwidth — and with which earlier requests share its
// cached searches; a run completes about one block, so the median of one
// run's latencies would move with every seed's draw of them. All of that,
// and which earlier request each repeat repeats, therefore follows one
// design per block, the same for every seed. The seed draws what changes
// the answer but not the work: the objective, and for 64 B/cycle DRAM
// whether it is LPDDR4 or HBM2 (equal bandwidth, different energy).
func scheduleCold(seed uint64, _ float64) *stream {
	pes := arch.PEConfigs()
	return &stream{more: func(reqs []request) []request {
		b := len(reqs) / scheduleBlock
		d := newRNG(0, "schedule-cold design", b)
		net, pe, glb := d.deal(scheduleBlock, 1, 1, 1), d.deal(scheduleBlock, 1, 1, 1), d.deal(scheduleBlock, 1, 1, 1, 1, 1)
		alg, mode, repeat := d.deal(scheduleBlock, 3, 1, 1), d.deal(scheduleBlock, 3, 1), d.deal(scheduleBlock, 3, 1)
		wide, cr := d.deal(scheduleBlock, 2, 1), d.deal(scheduleBlock, 1, 1, 1, 1)
		r := newRNG(seed, "schedule-cold", b)
		obj := r.deal(scheduleBlock, 4, 1)
		for j := 0; j < scheduleBlock; j++ {
			i := len(reqs)
			if repeat[j] == 1 && i > 0 {
				reqs = append(reqs, reqs[i-1-d.intn(min(8, i))])
				continue
			}
			a := spec(pes[pe[j]], glbKB[glb[j]], dram64(r, wide[j] == 1))
			c := cryptos[cr[j]]
			w := scheduleWire{Network: networks[net[j]], Arch: &a, Crypto: &c, Algorithm: algorithms[alg[j]], Objective: objectives[obj[j]]}
			if mode[j] == 1 {
				w.Mapper = guided
			}
			reqs = append(reqs, post("/v1/schedule", w, false))
		}
		return reqs
	}}
}

// fig16Request is the paper's Figure 16 sweep: AlexNet over the default
// space, front only, 200 annealing iterations per point. Its front must
// equal the pareto rows of results/fig16.csv.
func fig16Request() request {
	return post("/v1/sweep", sweepWire{Network: "alexnet", AnnealIterations: 200, Front: true}, false)
}

// sweepShapes are the (specs, cryptos) grids of the 8-12 point subspaces.
var sweepShapes = [][2]int{{2, 4}, {4, 2}, {3, 3}, {5, 2}, {3, 4}, {4, 3}, {6, 2}}

// sweepFront sends the Figure 16 sweep first, then guided front-only
// sweeps of 8-12 point subspaces, one per network in each block of three.
// As in scheduleCold, what sets a sweep's cost (its network, grid shape,
// PE/GLB points and crypto engines) follows a design shared by every seed;
// the seed draws whether each spec's 64 B/cycle DRAM is LPDDR4 or HBM2.
func sweepFront(seed uint64, _ float64) *stream {
	pes := arch.PEConfigs()
	return &stream{more: func(reqs []request) []request {
		if len(reqs) == 0 {
			return append(reqs, fig16Request())
		}
		b := (len(reqs) - 1) / len(networks)
		d, r := newRNG(0, "sweep-front design", b), newRNG(seed, "sweep-front", b)
		for _, n := range d.perm(len(networks)) {
			shape := sweepShapes[d.intn(len(sweepShapes))]
			w := sweepWire{Network: networks[n], AnnealIterations: 200, Mapper: guided, Front: true}
			grid := d.perm(len(pes) * len(glbKB))
			for _, g := range grid[:shape[0]] {
				w.Specs = append(w.Specs, spec(pes[g/len(glbKB)], glbKB[g%len(glbKB)], dram64(r, false)))
			}
			for _, c := range d.perm(len(cryptos))[:shape[1]] {
				w.Cryptos = append(w.Cryptos, cryptos[c])
			}
			reqs = append(reqs, post("/v1/sweep", w, false))
		}
		return reqs
	}}
}

// storeWarmPeriod fixes which kind of request sits at each popularity rank
// (s: schedule of networks[n], w: sweep, a: authblock).
var storeWarmPeriod = []string{"s0", "a", "s1", "s2", "a", "s0", "w", "s1", "a", "s2"}

// storeWarmPicks is the block length of the measured popularity draws.
const storeWarmPicks = 1000

// storeWarm builds a corpus (24 guided schedules, 4 two-by-two sweeps and
// 12 authblock requests at scale 1), which fills the store before the
// restart, then draws the measured requests from it with Zipf popularity
// over its ranks. As in scheduleCold, what sets the cost of serving the
// corpus (each rank's kind and shape, and the sequence of draws) follows a
// design shared by every seed; the seed draws what changes the answers but
// not the work.
func storeWarm(seed uint64, scale float64) *stream {
	pes := arch.PEConfigs()
	periods := max(1, int(math.Round(4*scale)))
	d, r := newRNG(0, "store-warm design", 0), newRNG(seed, "store-warm", 0)
	ab := newAuthblockGen()
	var corpus []request
	for p := 0; p < periods; p++ {
		for _, kind := range storeWarmPeriod {
			switch kind {
			case "a":
				corpus = append(corpus, ab.next(d, r, false, false))
			case "w":
				w := sweepWire{Network: networks[p%len(networks)], AnnealIterations: 200, Mapper: guided, Front: true}
				for _, g := range d.perm(len(glbKB))[:2] {
					w.Specs = append(w.Specs, spec(pes[d.intn(len(pes))], glbKB[g], dram64(r, false)))
				}
				for _, c := range d.perm(len(cryptos))[:2] {
					w.Cryptos = append(w.Cryptos, cryptos[c])
				}
				corpus = append(corpus, post("/v1/sweep", w, false))
			default:
				a := spec(pes[d.intn(len(pes))], glbKB[d.intn(len(glbKB))], dram64(r, d.intn(3) == 0))
				c := cryptos[d.intn(len(cryptos))]
				w := scheduleWire{Network: networks[kind[1]-'0'], Arch: &a, Crypto: &c,
					Algorithm: algorithms[d.intn(len(algorithms))], Objective: objectives[r.intn(len(objectives))], Mapper: guided}
				corpus = append(corpus, post("/v1/schedule", w, false))
			}
		}
	}
	// Zipf(1) popularity over corpus ranks.
	cdf := make([]float64, len(corpus))
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	return &stream{fill: corpus, more: func(reqs []request) []request {
		d := newRNG(0, "store-warm picks", len(reqs)/storeWarmPicks)
		for j := 0; j < storeWarmPicks; j++ {
			u := d.float() * sum
			k := 0
			for k < len(cdf)-1 && cdf[k] < u {
				k++
			}
			reqs = append(reqs, corpus[k])
		}
		return reqs
	}}
}

// authblockBlock is the period over which the sweep-curve and SSE shares
// are exact.
const authblockBlock = 100

// authblockOpen draws distinct /v1/authblock requests: a quarter ask for a
// sweep curve, half stream over SSE. The tilings, curves and SSE choices
// follow a design shared by every seed, since a few large tilings set an
// open loop's tail latency; the seed draws the traffic multipliers and the
// curve's orientation.
func authblockOpen(seed uint64, _ float64) *stream {
	ab := newAuthblockGen()
	return &stream{more: func(reqs []request) []request {
		b := len(reqs) / authblockBlock
		d, r := newRNG(0, "authblock-open design", b), newRNG(seed, "authblock-open", b)
		curve, sse := d.deal(authblockBlock, 3, 1), d.deal(authblockBlock, 1, 1)
		for j := 0; j < authblockBlock; j++ {
			reqs = append(reqs, ab.next(d, r, curve[j] == 1, sse[j] == 1))
		}
		return reqs
	}}
}

// tensorPair is one producer/consumer layer pair sharing a tensor.
type tensorPair struct {
	c, h, w     int // the shared tensor (producer ofmap)
	r, s        int // consumer filter
	stride, pad int
	outH, outW  int // consumer ofmap extents
}

// authblockGen draws producer/consumer tilings of the cross-layer pairs of
// the four networks, never the same request twice.
type authblockGen struct {
	pairs []tensorPair
	seen  map[string]bool
}

func newAuthblockGen() *authblockGen {
	g := &authblockGen{seen: map[string]bool{}}
	for _, name := range []string{"alexnet", "resnet18", "mobilenetv2", "vgg16"} {
		net, err := nets.ByName(name)
		if err != nil {
			panic(err) // built-in names
		}
		for _, pc := range net.CrossLayerPairs() {
			p, c := net.Layers[pc[0]], net.Layers[pc[1]]
			g.pairs = append(g.pairs, tensorPair{
				c: p.M, h: p.P, w: p.Q, r: c.R, s: c.S, stride: c.StrideH, pad: c.PadH,
				outH: c.P, outW: c.Q,
			})
		}
	}
	return g
}

var tileSplits = []int{1, 2, 3, 4, 7, 8}

// maxTileElems bounds the producer tile, whose volume sets how many
// AuthBlock sizes the search weighs: per-request compute stays small, so
// the service and HTTP layers' share of the time shows.
const maxTileElems = 1024

// next draws one distinct request: producer tiles split each axis of the
// tensor, consumer windows cover an output tile of the next layer plus its
// halo, offset by the consumer's padding. d draws the tiling and the
// curve's length, which set the search's work; r draws how often tiles are
// written and fetched, and the curve's orientation, which change the answer.
func (g *authblockGen) next(d, r *rng, curve, sse bool) request {
	for try := 0; ; try++ {
		t := g.pairs[d.intn(len(g.pairs))]
		tileC := num.CeilDiv(t.c, 1<<d.intn(4))
		tp, tq := num.CeilDiv(t.outH, tileSplits[d.intn(len(tileSplits))]), num.CeilDiv(t.outW, tileSplits[d.intn(len(tileSplits))])
		w := authblockWire{
			Producer: producerWire{
				C: t.c, H: t.h, W: t.w,
				TileC:         num.CeilDiv(t.c, 1<<d.intn(4)),
				TileH:         num.CeilDiv(t.h, tileSplits[d.intn(len(tileSplits))]),
				TileW:         num.CeilDiv(t.w, tileSplits[d.intn(len(tileSplits))]),
				WritesPerTile: 1,
			},
			Consumer: consumerWire{
				TileC: tileC,
				WinH:  num.MulInt(tp-1, t.stride) + t.r, WinW: num.MulInt(tq-1, t.stride) + t.s,
				StepH: num.MulInt(tp, t.stride), StepW: num.MulInt(tq, t.stride),
				OffH: -t.pad, OffW: -t.pad,
				CountC: num.CeilDiv(t.c, tileC), CountH: num.CeilDiv(t.outH, tp), CountW: num.CeilDiv(t.outW, tq),
				FetchesPerTile: 1,
			},
		}
		if curve {
			w.MaxU = 8 + d.intn(57)
		}
		if p := w.Producer; num.MulInt(num.MulInt(p.TileC, p.TileH), p.TileW) > maxTileElems && try < 100 {
			continue
		}
		k := post("/v1/authblock", w, sse).key()
		if g.seen[k] && try < 100 {
			continue
		}
		g.seen[k] = true
		// Scaling writes and fetches alike scales every cost term alike, so
		// the search takes the same path to a differently priced answer.
		times := 1 + r.intn(3)
		w.Producer.WritesPerTile, w.Consumer.FetchesPerTile = times, times
		if curve {
			w.Orientation = []string{"horizontal", "vertical", "channel"}[r.intn(3)]
		}
		return post("/v1/authblock", w, sse)
	}
}
