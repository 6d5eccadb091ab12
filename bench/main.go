// Command bench is SecureLoop-Go's benchmark. It builds cmd/secured, starts
// one fresh daemon per workload run, drives a seeded traffic mix against it
// over plain HTTP from this one process, checks every answer, and reports
// the end-to-end metrics BENCHMARK.json names, plus per-layer counters
// diffed from GET /v1/stats. With -trace 1 it also replays the workload in
// fresh child processes through the service's public functions, recording
// stage spans, and reports the per-layer metrics instead.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -workload schedule-cold -seed 1            # one run
//	bash bench/run.sh -seed 1 -repeat 5 -out a.json              # every workload
//	bash bench/run.sh -workload sweep-front -seed 1 -trace 1     # traced run
//	bash bench/run.sh -compare a.json b.json                     # verdicts
//
// The report goes to standard error; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	// An interrupt cancels the run, so its daemons are stopped on the way
	// out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	scale    float64
	out      string
	dump     string
}

// env is what workload runs execute against.
type env struct {
	root    string // repository root
	tmp     string // scratch directory for stores
	spans   string // directory traced runs write their span files to
	launch  launcher
	replay  func(context.Context, replayConfig) (*replayResult, error)
	goldens []golden
	log     io.Writer
}

// setupStarts is how many cold starts each run times for setup_s. A start
// takes a few milliseconds, so many fit in a run, which steadies their
// median.
const setupStarts = 21

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's requests are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (0: BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1: also replay each run traced and report the per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload; metrics report their median")
	fs.Float64Var(&o.scale, "scale", 1, "scales durations and corpus sizes (goldens apply at 1 only)")
	fs.StringVar(&o.out, "out", "", "write every run's metrics to this JSON file")
	fs.StringVar(&o.dump, "dump", "", "write every answer body under this directory")
	compare := fs.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	replayCfg := fs.String("replay", "", "run one in-process replay (JSON config); used by -trace 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *replayCfg != "" {
		return replayMain(ctx, *replayCfg, stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		return compareFiles(spec, fs.Args(), stdout, stderr)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.repeat < 1 || o.scale <= 0 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(stderr, "bench: -repeat must be >= 1, -scale > 0, -trace 0 or 1")
		return 2
	}
	var selected []*workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}

	e := &env{
		root: root, tmp: filepath.Join(root, ".bench_build", "tmp"), spans: filepath.Join(root, "bench", "out"),
		replay: spawnReplay, log: stderr,
	}
	if e.goldens, err = loadGoldens(root); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bin, err := buildDaemon(ctx, root, filepath.Join(root, ".bench_build"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e.launch = daemonLauncher(bin)

	sums, err := runSet(ctx, e, selected, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return finish(spec, sums, o, stdout, stderr)
}

// findRoot checks that the working directory is the repository root.
func findRoot() (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "secured")); err != nil {
		return "", errors.New("run from the repository root (cmd/secured not found)")
	}
	return filepath.Abs(".")
}

// runSet runs each selected workload o.repeat times and summarises it.
func runSet(ctx context.Context, e *env, selected []*workload, o options) ([]summary, error) {
	var sums []summary
	for _, w := range selected {
		var runs []*runResult
		for k := 0; k < o.repeat; k++ {
			dur := o.seconds * o.scale
			rctx, cancel := context.WithTimeout(ctx, time.Duration((100+3*dur)*float64(time.Second)))
			r, err := runWorkload(rctx, e, w, o)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			runs = append(runs, r)
		}
		sums = append(sums, summarise(w.name, runs))
		report(e.log, sums[len(sums)-1])
	}
	return sums, nil
}

// runResult is one measured run of one workload.
type runResult struct {
	attempted, failed  int
	sent               int // requests of the measured phase
	perWindow          int // an open loop's requests per latency window (0: closed loop)
	lat                []sample
	lag                []float64
	ops                float64
	setup              []float64
	rss                float64
	before, after      daemonStats
	problems, failures []string
	metrics            []metric
}

// runWorkload runs w once: fill (store-warm), timed cold starts on
// the store the measured phase uses, the measured phase, the correctness
// checks and, with -trace 1, the traced replay.
func runWorkload(ctx context.Context, e *env, w *workload, o options) (*runResult, error) {
	s := w.gen(o.seed, o.scale)
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	dump := ""
	if o.dump != "" {
		dump = filepath.Join(o.dump, w.name)
		if err := os.MkdirAll(dump, 0o755); err != nil {
			return nil, err
		}
	}
	rec := newRecorder(dump)

	if len(s.fill) > 0 {
		srv, _, err := e.launch(ctx, storeDir)
		if err != nil {
			return nil, err
		}
		cl := newClient(srv.url(), 2)
		sendAll(ctx, cl, "fill", s.fill, rec)
		cl.close()
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}

	res := &runResult{}
	var srv server
	for k := 0; k < setupStarts; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if srv, took, err = e.launch(ctx, storeDir); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, took.Seconds())
	}
	running := true
	defer func() {
		if running {
			_ = srv.stop()
		}
	}()
	conns := w.clients
	if conns == 0 {
		conns = 2
	}
	cl := newClient(srv.url(), conns)
	defer cl.close()
	if len(s.fill) > 0 {
		// One untimed pass pays each stored answer's first-touch cost after
		// the restart (a sweep's bound pre-pass runs mapper bounds the store
		// does not keep), so the measured phase is the steady read path.
		sendAll(ctx, cl, "warm", s.fill, rec)
	}
	if res.before, err = getStats(srv.url()); err != nil {
		return nil, err
	}
	untimed := rec.count()
	n := max(1, int(math.Round(w.rate*o.seconds*o.scale)))
	stopSampling := sampleRSS(srv, &res.rss)
	if w.clients > 0 {
		res.ops = closedLoop(ctx, cl, s, w.clients, n, rec)
	} else {
		res.perWindow = max(1, int(math.Round(w.rate*windowS)))
		res.ops = openLoop(ctx, cl, s, w.rate, conns, n, rec)
	}
	stopSampling()
	res.sent = rec.count() - untimed
	if res.after, err = getStats(srv.url()); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Ask a few measured requests again over the other transport, untimed:
	// each is now answered from the store or a cache, so this also holds SSE
	// against plain answers, and replayed against computed ones.
	for i := 0; i < min(n, 8); i++ {
		r := s.at(i)
		r.sse = !r.sse
		body, err := cl.do(ctx, r)
		rec.add("flip", i, r, body, err, -1, -1)
	}
	if w.name == "sweep-front" {
		if body, ok := rec.body(s.at(0)); !ok {
			rec.problem("the Figure 16 sweep was not answered")
		} else if err := checkFig16(e.root, body); err != nil {
			rec.problem("%v", err)
		}
	}
	if math.Abs(o.scale-1) < 1e-9 {
		checkGolden(ctx, e, w, o.seed, s, cl, rec)
	}
	running = false
	if err := srv.stop(); err != nil {
		return nil, err
	}

	var traced []metric
	if o.trace == 1 {
		if traced, err = traceRun(ctx, e, w, o, s, dir, storeDir, rec); err != nil {
			return nil, err
		}
	}
	rec.settle(res)
	res.metrics = append(append(endToEnd(res), layerCounters(res)...), traced...)
	return res, nil
}

// sampleRSS samples the daemon's resident set every 100 ms until the
// returned stop function is called, which stores the samples' median in
// *rss. A median, not the peak: the peak moves with where garbage
// collections happen to fall, run to run, by a fifth or more.
func sampleRSS(srv server, rss *float64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		samples := []float64{srv.rssMiB()}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, srv.rssMiB())
			case <-done:
				*rss = median(samples)
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// checkGolden completes the golden requests the measured phase did not
// reach (untimed), hashes their answers in order and compares the hash
// with the committed one for this workload and seed.
func checkGolden(ctx context.Context, e *env, w *workload, seed uint64, s *stream, cl *client, rec *recorder) {
	reqs := goldenRequests(w, s)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		body, ok := rec.body(r)
		if !ok {
			var err error
			body, err = cl.do(ctx, r)
			rec.add("golden", i, r, body, err, -1, -1)
			if err != nil {
				return
			}
		}
		bodies[i] = body
	}
	sum := hashAnswers(bodies)
	for _, g := range e.goldens {
		if g.Workload == w.name && g.Seed == seed {
			if g.SHA256 != sum {
				rec.problem("golden answers differ: sha256 %s, committed %s", sum, g.SHA256)
			}
			return
		}
	}
	fmt.Fprintf(e.log, "%s seed %d: golden sha256 %s over %d answers (none committed)\n", w.name, seed, sum, len(reqs))
}

// traceRun replays the workload traced in one fresh process and untraced
// in another over the same requests, checks their answers against the
// daemon's, and returns the per-layer metrics of the traced replay.
func traceRun(ctx context.Context, e *env, w *workload, o options, s *stream, dir, storeDir string, rec *recorder) ([]metric, error) {
	cfg := replayConfig{
		Workload: w.name, Seed: o.seed, Scale: o.scale, FilledDir: storeDir,
		WorkDir: filepath.Join(dir, "traced"), Traced: true,
		BudgetS:  o.seconds * o.scale / 2,
		SpanFile: filepath.Join(e.spans, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed)),
	}
	traced, err := e.replay(ctx, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "%s seed %d: %d requests replayed, spans in %s\n", w.name, o.seed, traced.Count, cfg.SpanFile)
	cfg.WorkDir, cfg.Traced, cfg.Count, cfg.SpanFile = filepath.Join(dir, "untraced"), false, traced.Count, ""
	untraced, err := e.replay(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range append(traced.Answers, untraced.Answers...) {
		if body, ok := rec.body(s.at(a.Req)); ok && fmt.Sprintf("%x", sha256.Sum256(body)) != a.Body {
			rec.problem("replayed request %d: in-process answer differs from the daemon's", a.Req)
		}
	}
	return append(traced.Metrics, metric{
		Name: "trace.overhead_frac", Unit: "ratio", Value: traced.TotalS/untraced.TotalS - 1, N: traced.Count,
		Base: fmt.Sprintf("untraced_s=%.3f", untraced.TotalS),
	}), nil
}

func replayMain(ctx context.Context, raw string, stdout, stderr io.Writer) int {
	var cfg replayConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(stderr, "bench: -replay:", err)
		return 2
	}
	res, err := replay(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench: replay:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench: replay:", err)
		return 1
	}
	return 0
}

// summary is one workload over all its runs, as written to -out.
type summary struct {
	Name      string          `json:"name"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Problems  []string        `json:"problems,omitempty"`
	Failures  []string        `json:"failures,omitempty"`
	Metrics   []summaryMetric `json:"metrics"`
}

// summaryMetric is one metric's values over the runs, with their median
// and quartiles.
type summaryMetric struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
	N      int       `json:"n"`
	Base   string    `json:"base,omitempty"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarise(name string, runs []*runResult) summary {
	var s summary
	s.Name = name
	for _, r := range runs {
		s.Attempted += r.attempted
		s.Failed += r.failed
		s.Problems = append(s.Problems, r.problems...)
		s.Failures = append(s.Failures, r.failures...)
	}
	s.Correct = len(s.Problems) == 0
	for i, m := range runs[0].metrics {
		sm := summaryMetric{Name: m.Name, Unit: m.Unit, N: m.N, Base: m.Base}
		for _, r := range runs {
			sm.Runs = append(sm.Runs, r.metrics[i].Value)
		}
		sm.Q1, sm.Median, sm.Q3 = quartiles(sm.Runs)
		s.Metrics = append(s.Metrics, sm)
	}
	return s
}

// report prints every metric by name with its unit and sample count.
func report(w io.Writer, s summary) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", s.Name, s.Attempted, s.Failed, s.Correct)
	for _, p := range s.Problems {
		fmt.Fprintf(w, "   INCORRECT: %s\n", p)
	}
	for _, f := range s.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, m := range s.Metrics {
		line := fmt.Sprintf("   %-28s %14.4f %-5s n=%d", m.Name, m.Median, m.Unit, m.N)
		if len(m.Runs) > 1 {
			line += fmt.Sprintf("  q1=%.4f q3=%.4f runs=%d", m.Q1, m.Q3, len(m.Runs))
		}
		if m.Base != "" {
			line += "  base " + m.Base
		}
		fmt.Fprintln(w, line)
	}
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish writes -out and prints the result line: the end-to-end metrics
// (or with -trace 1 the per-layer ones) BENCHMARK.json lists, prefixed by
// the workload's name when several ran.
func finish(spec *benchSpec, sums []summary, o options, stdout, stderr io.Writer) int {
	want := spec.EndToEnd
	if o.trace == 1 {
		want = spec.PerLayer
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, s := range sums {
		line.Correct = line.Correct && s.Correct
		line.Attempted += s.Attempted
		line.Failed += s.Failed
		for _, wm := range want {
			m, ok := findSummary(s.Metrics, wm.Name)
			if !ok || m.Unit != wm.Unit {
				fmt.Fprintf(stderr, "bench: %s: metric %s (%s) was not measured\n", s.Name, wm.Name, wm.Unit)
				return 1
			}
			name := m.Name
			if len(sums) > 1 {
				name = s.Name + "/" + name
			}
			line.Metrics[name] = valueUnit{Value: m.Median, Unit: m.Unit}
		}
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(struct {
			Seed      uint64    `json:"seed"`
			Seconds   float64   `json:"seconds"`
			Scale     float64   `json:"scale"`
			Trace     int       `json:"trace"`
			Workloads []summary `json:"workloads"`
		}{o.seed, o.seconds, o.scale, o.trace, sums}, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: -out:", err)
			return 1
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

func findSummary(ms []summaryMetric, name string) (summaryMetric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return summaryMetric{}, false
}

// compareFiles prints, per workload and end-to-end metric, the change from
// the first -out file to the second and a verdict against the metric's
// bound: better, same, worse, or unresolved when the runs' spread is wider
// than the bound and the runs overlap. It exits 1 when any verdict is worse.
func compareFiles(spec *benchSpec, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two -out files")
		return 2
	}
	var sets [2]struct {
		Workloads []summary `json:"workloads"`
	}
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(raw, &sets[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	status := 0
	fmt.Fprintf(stdout, "%-16s %-12s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, b := range sets[1].Workloads {
		var a *summary
		for i := range sets[0].Workloads {
			if sets[0].Workloads[i].Name == b.Name {
				a = &sets[0].Workloads[i]
			}
		}
		if a == nil {
			continue
		}
		for _, sm := range spec.EndToEnd {
			am, ok1 := findSummary(a.Metrics, sm.Name)
			bm, ok2 := findSummary(b.Metrics, sm.Name)
			if !ok1 || !ok2 || am.Median <= 0 {
				continue
			}
			v, change, spread := verdict(am, bm, sm)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-16s %-12s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				b.Name, sm.Name, am.Median, bm.Median, 100*change, 100*spread, 100*sm.Bound, v)
		}
	}
	return status
}

// verdict judges b against a. worse is the change in the direction that
// hurts, relative to a's median; spread is the wider of the two sides'
// interquartile ranges relative to their medians.
func verdict(a, b summaryMetric, sm specMetric) (v string, change, spread float64) {
	change = (b.Median - a.Median) / a.Median
	worse := change
	if sm.Better == "higher" {
		worse = -change
	}
	spread = max((a.Q3-a.Q1)/a.Median, (b.Q3-b.Q1)/b.Median)
	better := func(x, y float64) bool { // x reads better than y
		if sm.Better == "higher" {
			return x > y
		}
		return x < y
	}
	separated := func(x, y []float64) bool { // every x reads better than every y
		for _, xv := range x {
			for _, yv := range y {
				if !better(xv, yv) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case spread > sm.Bound && separated(b.Runs, a.Runs):
		return "better", change, spread
	case spread > sm.Bound && separated(a.Runs, b.Runs):
		return "worse", change, spread
	case spread > sm.Bound:
		return "unresolved", change, spread
	case worse > sm.Bound:
		return "worse", change, spread
	case worse < -sm.Bound:
		return "better", change, spread
	}
	return "same", change, spread
}
