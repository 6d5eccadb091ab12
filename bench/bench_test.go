package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"secureloop/internal/service"
	"secureloop/internal/service/httpapi"
	"secureloop/internal/store"
)

// inProcess is a fresh service over a store, served by an httptest
// server: the smoke test's stand-in for a cmd/secured child process.
type inProcess struct {
	srv *httptest.Server
	svc *service.Service
	st  *store.Store
}

func launchInProcess(_ context.Context, dir string) (server, time.Duration, error) {
	start := time.Now()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, 0, err
	}
	svc := service.New(service.Config{Store: st})
	p := &inProcess{srv: httptest.NewServer(httpapi.NewHandler(svc, httpapi.Options{})), svc: svc, st: st}
	return p, time.Since(start), nil
}

func (p *inProcess) url() string     { return p.srv.URL }
func (p *inProcess) rssMiB() float64 { return 0 }

func (p *inProcess) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.svc.Drain(ctx); err != nil {
		return err
	}
	p.srv.Close()
	return p.st.Close()
}

// testLog routes the benchmark's report into the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestSmoke runs every workload at 2% of its length, then one traced run,
// against in-process servers, and requires every answer to pass the
// correctness checks and every BENCHMARK.json metric to be reported.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: "..", tmp: t.TempDir(), spans: t.TempDir(), launch: launchInProcess, replay: replay, log: testLog{t}}
	o := options{seed: 1, seconds: float64(spec.RunSeconds), repeat: 1, scale: 0.02}
	ctx := context.Background()
	check := func(sums []summary, o options) {
		t.Helper()
		for _, s := range sums {
			if !s.Correct || s.Failed > 0 || s.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%q failures=%q", s.Name, s.Correct, s.Attempted, s.Failed, s.Problems, s.Failures)
			}
		}
		var out bytes.Buffer
		if code := finish(spec, sums, o, &out, testLog{t}); code != 0 {
			t.Fatalf("finish exited %d", code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct bool                      `json:"correct"`
			Metrics map[string]map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		want := len(spec.EndToEnd)
		if o.trace == 1 {
			want = len(spec.PerLayer)
		}
		if !line.Correct || len(line.Metrics) != want*len(sums) {
			t.Errorf("result line: correct=%v with %d metrics, want %d", line.Correct, len(line.Metrics), want*len(sums))
		}
		// Every time is measured on every workload: a layer a workload
		// leaves out is probed, so no time reads a constant 0.
		names := make([]string, 0, len(line.Metrics))
		for name := range line.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := line.Metrics[name]
			if u := m["unit"]; (u == "ms" || u == "us" || u == "s") && m["value"] == 0.0 {
				t.Errorf("result line: %s reads 0 %s", name, u)
			}
		}
	}

	sums, err := runSet(ctx, e, workloads, o)
	if err != nil {
		t.Fatal(err)
	}
	check(sums, o)

	o.trace = 1
	w, err := findWorkload("authblock-open")
	if err != nil {
		t.Fatal(err)
	}
	if sums, err = runSet(ctx, e, []*workload{w}, o); err != nil {
		t.Fatal(err)
	}
	check(sums, o)
}

// TestCorpusDeterminism: a seed always generates the same requests, and
// another seed different ones.
func TestCorpusDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(1, 1), w.gen(1, 1), w.gen(2, 1)
		if len(a.fill) != len(b.fill) {
			t.Fatalf("%s: fill sizes %d and %d", w.name, len(a.fill), len(b.fill))
		}
		differ := false
		for i := range a.fill {
			if a.fill[i].key() != b.fill[i].key() {
				t.Errorf("%s: fill %d differs between two generations of seed 1", w.name, i)
			}
			differ = differ || a.fill[i].key() != c.fill[i].key()
		}
		for i := 0; i < 200; i++ {
			if a.at(i).key() != b.at(i).key() || a.at(i).sse != b.at(i).sse {
				t.Errorf("%s: request %d differs between two generations of seed 1", w.name, i)
			}
			differ = differ || a.at(i).key() != c.at(i).key()
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 generate the same requests", w.name)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4).
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestReadSSE: the result frame's data is the answer; an error frame or a
// stream without a result is a failure.
func TestReadSSE(t *testing.T) {
	body, err := readSSE(strings.NewReader("event: progress\ndata: {}\n\nevent: accounting\ndata: {}\n\nevent: result\ndata: {\"u\":1}\n\n"))
	if err != nil || string(body) != "{\"u\":1}\n" {
		t.Errorf("result stream: %q, %v", body, err)
	}
	for _, stream := range []string{"event: error\ndata: {\"error\":\"x\"}\n\n", "event: progress\ndata: {}\n\n"} {
		if _, err := readSSE(strings.NewReader(stream)); err == nil {
			t.Errorf("stream %q: no error", stream)
		}
	}
}
