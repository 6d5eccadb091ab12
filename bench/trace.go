package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"secureloop/internal/authblock"
	"secureloop/internal/obs"
	"secureloop/internal/service"
	"secureloop/internal/service/httpapi"
	"secureloop/internal/store"
)

// The traced run replays a workload's requests serially in a fresh
// process, calling the service's public functions directly. Stage times
// are taken from the events of service.Pending as they arrive here: the
// clock is read only in this package, never from an Observer inside the
// deterministic core.

// replayConfig tells a replay process what to replay.
type replayConfig struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Scale    float64 `json:"scale"`
	// FilledDir is the store the daemon phase left behind; WorkDir is an
	// empty directory for the cold workloads' store.
	FilledDir string `json:"filled_dir"`
	WorkDir   string `json:"work_dir"`
	Traced    bool   `json:"traced"`
	// The replay stops after BudgetS seconds, or after exactly Count
	// requests when Count is positive.
	BudgetS  float64 `json:"budget_s"`
	Count    int     `json:"count"`
	SpanFile string  `json:"span_file"`
}

// replayResult is what a replay process reports back.
type replayResult struct {
	Count   int      `json:"count"`
	TotalS  float64  `json:"total_s"`
	Answers []answer `json:"answers"`
	Metrics []metric `json:"metrics"`
}

// answer is the SHA-256 of the first answer to stream request Req.
type answer struct {
	Req  int    `json:"req"`
	Body string `json:"body"`
}

// span is one timed interval of the traced replay, in microseconds since
// the replay started. Spans of one request share Req, its index in the
// workload's stream, or in Stream's when a probe sent it; a request's root
// span has Parent -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Stream  string `json:"stream,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spawnReplay runs one replay in a child process of this binary, so every
// process-wide cache starts empty, as it does in a fresh daemon.
func spawnReplay(ctx context.Context, cfg replayConfig) (*replayResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-replay", string(raw))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", cfg.Workload, err)
	}
	var res replayResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("replay %s output: %w", cfg.Workload, err)
	}
	return &res, nil
}

func replay(ctx context.Context, cfg replayConfig) (res *replayResult, err error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	s := w.gen(cfg.Seed, cfg.Scale)

	t0 := time.Now()
	st, err := store.Open(cfg.FilledDir, store.Options{})
	if err != nil {
		return nil, err
	}
	openMS := ms(time.Since(t0))
	if err := st.Close(); err != nil {
		return nil, err
	}
	dir := cfg.WorkDir
	if len(s.fill) > 0 {
		dir = cfg.FilledDir
	}
	if st, err = store.Open(dir, store.Options{}); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	svc := service.New(service.Config{Store: st})

	tr := &tracer{epoch: time.Now()}
	res = &replayResult{}
	first := map[string]string{}
	var distinct []request
	for i := 0; ; i++ {
		if cfg.Count > 0 && i >= cfg.Count || cfg.Count <= 0 && i > 0 && time.Since(tr.epoch).Seconds() >= cfg.BudgetS {
			break
		}
		r := s.at(i)
		body, err := tr.call(ctx, svc, i, r, cfg.Traced)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(body))
		if prev, ok := first[r.key()]; !ok {
			first[r.key()] = sum
			distinct = append(distinct, r)
			res.Answers = append(res.Answers, answer{Req: i, Body: sum})
		} else if prev != sum {
			return nil, fmt.Errorf("replay request %d: answer differs from an earlier answer to the same request", i)
		}
		res.Count++
	}
	res.TotalS = time.Since(tr.epoch).Seconds()
	if !cfg.Traced {
		return res, nil
	}
	if err := tr.probe(ctx, cfg.Seed, cfg.Scale); err != nil {
		return nil, err
	}
	res.Metrics = append(tr.metrics(), metric{Name: "store.open_ms", Unit: "ms", Value: openMS, N: 1})
	direct, err := directAuthBlock(ctx, cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	over, err := httpOverhead(ctx, svc, distinct)
	if err != nil {
		return nil, err
	}
	res.Metrics = append(append(res.Metrics, direct...), over...)
	return res, writeSpans(cfg, tr.spans)
}

func writeSpans(cfg replayConfig, spans []span) error {
	raw, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.Workload, cfg.Seed, spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.SpanFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(cfg.SpanFile, raw, 0o644)
}

// begin submits one wire request to the service in process, decoding it
// exactly as the daemon's HTTP layer does.
func begin(ctx context.Context, svc *service.Service, r request, opts service.SubmitOptions) (*service.Pending, error) {
	switch r.path {
	case "/v1/schedule":
		var w service.ScheduleWire
		if err := json.Unmarshal(r.body, &w); err != nil {
			return nil, err
		}
		q, err := w.Resolve()
		if err != nil {
			return nil, err
		}
		return svc.BeginSchedule(ctx, q, opts)
	case "/v1/sweep":
		var w service.SweepWire
		if err := json.Unmarshal(r.body, &w); err != nil {
			return nil, err
		}
		q, err := w.Resolve()
		if err != nil {
			return nil, err
		}
		return svc.BeginSweep(ctx, q, opts)
	case "/v1/authblock":
		q, err := resolveAuthBlock(r)
		if err != nil {
			return nil, err
		}
		return svc.BeginAuthBlock(ctx, q, opts)
	}
	return nil, fmt.Errorf("unknown endpoint %s", r.path)
}

func resolveAuthBlock(r request) (*service.AuthBlockRequest, error) {
	var w service.AuthBlockWire
	if err := json.Unmarshal(r.body, &w); err != nil {
		return nil, err
	}
	return w.Resolve()
}

// steps are the scheduling stages reported as core.step1..3.
var steps = []obs.Stage{obs.StageMapping, obs.StageAuthBlock, obs.StageAnneal}

// tracer records spans and sums the per-stage time of a replay.
type tracer struct {
	epoch  time.Time
	spans  []span
	stream string // the probed workload while a probe runs

	computed, swept         int // schedules computed; sweeps with a first point
	step                    [3]time.Duration
	assemble, self, firstPt time.Duration
}

func (tr *tracer) add(name string, parent, req int, from, to time.Time) int {
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans), Parent: parent, Req: req, Stream: tr.stream, Name: name,
		StartUS: from.Sub(tr.epoch).Microseconds(), EndUS: to.Sub(tr.epoch).Microseconds(),
	})
	return len(tr.spans) - 1
}

// call runs request i in process. Traced, it opens a span per stage from
// the StageStart/StageEnd events, an assembly span from the last stage's
// end to the result, and a first-point span for sweeps.
func (tr *tracer) call(ctx context.Context, svc *service.Service, i int, r request, traced bool) ([]byte, error) {
	start := time.Now()
	p, err := begin(ctx, svc, r, service.SubmitOptions{Events: traced})
	if err != nil {
		return nil, err
	}
	root := tr.add(r.path, -1, i, start, start)
	opened := map[obs.Stage]time.Time{}
	var stage [3]time.Duration
	var lastEnd, firstPoint time.Time
	if traced {
		for ev := range p.Events() {
			now := time.Now()
			switch ev.Kind {
			case obs.EventStageStart:
				opened[ev.Stage.Stage] = now
			case obs.EventStageEnd:
				from, ok := opened[ev.Stage.Stage]
				if !ok {
					continue
				}
				tr.add(string(ev.Stage.Stage), root, i, from, now)
				for k, st := range steps {
					if st == ev.Stage.Stage {
						stage[k] += now.Sub(from)
						lastEnd = now
					}
				}
			case obs.EventLayer, obs.EventSweepPoint:
				if firstPoint.IsZero() && (ev.Kind == obs.EventSweepPoint || ev.Layer.Stage == obs.StageSweep) {
					firstPoint = now
				}
			}
		}
	}
	body, _, _, _, err := p.Result()
	end := time.Now()
	tr.spans[root].EndUS = end.Sub(tr.epoch).Microseconds()
	switch r.path {
	case "/v1/schedule":
		if lastEnd.IsZero() {
			break // answered from the store: no stage ran
		}
		tr.computed++
		tr.add(string(obs.StageAssemble), root, i, lastEnd, end)
		tr.assemble += end.Sub(lastEnd)
		self := lastEnd.Sub(start)
		for k, d := range stage {
			tr.step[k] += d
			self -= d
		}
		tr.self += self
	case "/v1/sweep":
		if !firstPoint.IsZero() {
			tr.add("first point", root, i, start, firstPoint)
			tr.firstPt += firstPoint.Sub(start)
			tr.swept++
		}
	}
	return body, err
}

// probeRequest is the index of the request a probe replays: the design
// every seed shares makes it a small one on both probed streams, where
// request 0 of sweep-front is the Figure 16 sweep, the costliest.
const probeRequest = 1

// probe times the layers the workload's replay left unmeasured on one
// request of the workload that exercises them (the scheduling steps on
// schedule-cold, a sweep's first point on sweep-front), through a fresh
// service without a store, so every traced run reports every layer.
func (tr *tracer) probe(ctx context.Context, seed uint64, scale float64) error {
	svc := service.New(service.Config{})
	for _, p := range []struct {
		workload string
		missing  bool
	}{{"schedule-cold", tr.computed == 0}, {"sweep-front", tr.swept == 0}} {
		if !p.missing {
			continue
		}
		w, err := findWorkload(p.workload)
		if err != nil {
			return err
		}
		tr.stream = p.workload
		if _, err := tr.call(ctx, svc, probeRequest, w.gen(seed, scale).at(probeRequest), true); err != nil {
			return fmt.Errorf("probe %s: %w", p.workload, err)
		}
	}
	tr.stream = ""
	return nil
}

// metrics are the mean time per computed schedule in each stage (self is
// the part before the last stage's end that no stage span covers:
// validation, admission, store lookups), and the mean time to a sweep's
// first disposed point.
func (tr *tracer) metrics() []metric {
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	return []metric{
		{Name: "core.step1_ms", Unit: "ms", Value: per(tr.step[0], tr.computed), N: tr.computed},
		{Name: "core.step2_ms", Unit: "ms", Value: per(tr.step[1], tr.computed), N: tr.computed},
		{Name: "core.step3_ms", Unit: "ms", Value: per(tr.step[2], tr.computed), N: tr.computed},
		{Name: "core.assemble_ms", Unit: "ms", Value: per(tr.assemble, tr.computed), N: tr.computed},
		{Name: "core.self_ms", Unit: "ms", Value: per(tr.self, tr.computed), N: tr.computed},
		{Name: "dse.first_point_ms", Unit: "ms", Value: per(tr.firstPt, tr.swept), N: tr.swept},
	}
}

// directRequests is how many AuthBlock problems directAuthBlock times.
const directRequests = 100

// directAuthBlock times authblock.OptimalCtx, and SweepCtx where a curve
// is asked for, on the first requests of the seed's authblock-open stream,
// bypassing the service. The process-wide caches are dropped first, so
// every workload's traced run times the same problems from cold.
func directAuthBlock(ctx context.Context, seed uint64, scale float64) ([]metric, error) {
	authblock.ResetCaches()
	s := authblockOpen(seed, scale)
	var opt, sweep []float64
	for i := 0; i < directRequests; i++ {
		q, err := resolveAuthBlock(s.at(i))
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := authblock.OptimalCtx(ctx, q.Producer, q.Consumer, q.Params); err != nil {
			return nil, err
		}
		opt = append(opt, us(time.Since(t)))
		if q.MaxU > 0 {
			t = time.Now()
			if _, err := authblock.SweepCtx(ctx, q.Producer, q.Consumer, q.Orientation, q.MaxU, q.Params); err != nil {
				return nil, err
			}
			sweep = append(sweep, us(time.Since(t)))
		}
	}
	return []metric{
		{Name: "authblock.optimal_p50_us", Unit: "us", Value: percentile(opt, 0.5), N: len(opt)},
		{Name: "authblock.sweep_p50_us", Unit: "us", Value: percentile(sweep, 0.5), N: len(sweep)},
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// httpOverhead serves the replay's service through httpapi on a loopback
// listener and, per request (every one now answerable from the store),
// subtracts the median of three in-process calls from the median of three
// plain HTTP calls, and the plain HTTP median from the SSE median.
func httpOverhead(ctx context.Context, svc *service.Service, reqs []request) ([]metric, error) {
	srv := httptest.NewServer(httpapi.NewHandler(svc, httpapi.Options{}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	var over, sse []float64
	for _, r := range reqs[:min(len(reqs), 30)] {
		var inproc, plain, stream []float64
		for rep := 0; rep < 3; rep++ {
			t := time.Now()
			p, err := begin(ctx, svc, r, service.SubmitOptions{})
			if err != nil {
				return nil, err
			}
			if _, _, _, _, err := p.Result(); err != nil {
				return nil, err
			}
			inproc = append(inproc, ms(time.Since(t)))
			for _, viaSSE := range []bool{false, true} {
				q := r
				q.sse = viaSSE
				t = time.Now()
				if _, err := cl.do(ctx, q); err != nil {
					return nil, err
				}
				if viaSSE {
					stream = append(stream, ms(time.Since(t)))
				} else {
					plain = append(plain, ms(time.Since(t)))
				}
			}
		}
		over = append(over, median(plain)-median(inproc))
		sse = append(sse, median(stream)-median(plain))
	}
	return []metric{
		{Name: "httpapi.overhead_p50_ms", Unit: "ms", Value: percentile(over, 0.5), N: len(over)},
		{Name: "httpapi.sse_extra_p50_ms", Unit: "ms", Value: percentile(sse, 0.5), N: len(sse)},
	}, nil
}
