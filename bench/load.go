package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client sends requests over at most conns connections, using plain
// net/http: the daemon's own client package is code under test.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 150 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the canonical response body: the plain
// body, or the data of an SSE stream's result frame plus the newline the
// frame drops.
func (c *client) do(ctx context.Context, r request) ([]byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if r.sse {
		hr.Header.Set("Accept", "text/event-stream")
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: HTTP %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !r.sse {
		return io.ReadAll(resp.Body)
	}
	return readSSE(resp.Body)
}

// readSSE returns the result frame of an event stream. An error frame, or
// a stream that ends without a result, is a failed request.
func readSSE(rd io.Reader) ([]byte, error) {
	br := bufio.NewReader(rd)
	event := ""
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
		} else if data, ok := strings.CutPrefix(line, "data: "); ok {
			switch event {
			case "result":
				// Drain the stream's end so the connection is reused.
				_, _ = io.Copy(io.Discard, br)
				return append([]byte(data), '\n'), nil
			case "error":
				return nil, fmt.Errorf("SSE error frame: %s", data)
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, errors.New("SSE stream ended without a result")
			}
			return nil, err
		}
	}
}

// recorder collects one run's outcomes and checks every answer as it
// arrives: the first answer to an identity must have the expected shape,
// and every later answer must repeat its bytes.
type recorder struct {
	dump string // directory bodies are written to ("" for none)

	mu        sync.Mutex
	attempted int               // guarded by mu
	failed    int               // guarded by mu
	lat       []sample          // guarded by mu (measured requests only)
	lag       []float64         // guarded by mu (ms, measured requests only)
	bodies    map[string][]byte // guarded by mu (first answer per identity)
	problems  []string          // guarded by mu (correctness failures)
	failures  []string          // guarded by mu (the first failed requests)
}

// sample is the latency of measured request req, in ms.
type sample struct {
	req int
	ms  float64
}

func newRecorder(dump string) *recorder {
	return &recorder{dump: dump, bodies: map[string][]byte{}}
}

// add records request i's outcome. lat < 0 marks an untimed request (fill
// or golden completion), which has no lag either.
func (rec *recorder) add(tag string, i int, r request, body []byte, err error, lat, lag time.Duration) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.attempted++
	if err != nil {
		rec.failed++
		if len(rec.failures) < 5 {
			rec.failures = append(rec.failures, fmt.Sprintf("%s %d: %v", tag, i, err))
		}
		return
	}
	if lat >= 0 {
		rec.lat = append(rec.lat, sample{i, ms(lat)})
	}
	if lag >= 0 {
		rec.lag = append(rec.lag, ms(lag))
	}
	k := r.key()
	if first, ok := rec.bodies[k]; !ok {
		rec.bodies[k] = body
		if err := checkShape(r, body); err != nil {
			rec.problems = append(rec.problems, fmt.Sprintf("%s %d: %v", tag, i, err))
		}
	} else if !bytes.Equal(first, body) {
		rec.problems = append(rec.problems, fmt.Sprintf("%s %d (sse=%v): answer differs from an earlier answer to the same request", tag, i, r.sse))
	}
	if rec.dump != "" {
		if err := os.WriteFile(filepath.Join(rec.dump, fmt.Sprintf("%s-%06d.json", tag, i)), body, 0o644); err != nil && len(rec.problems) < 100 {
			rec.problems = append(rec.problems, fmt.Sprintf("dump: %v", err))
		}
	}
}

func (rec *recorder) count() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.attempted
}

// settle copies the recorder's outcome into res.
func (rec *recorder) settle(res *runResult) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	res.attempted, res.failed = rec.attempted, rec.failed
	res.lat, res.lag = rec.lat, rec.lag
	res.problems, res.failures = rec.problems, rec.failures
}

func (rec *recorder) problem(format string, args ...any) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.problems = append(rec.problems, fmt.Sprintf(format, args...))
}

func (rec *recorder) body(r request) ([]byte, bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	b, ok := rec.bodies[r.key()]
	return b, ok
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs clients that each send the stream's next request as soon
// as their previous one is answered, until the first n requests are sent.
// The work is fixed rather than the time, so every run of a seed measures
// the same requests however fast the host runs. It returns the completed
// requests per second, summed over the clients, each client's rate taken
// over its own time until its last answer, so a client left idle while the
// other finishes the last request does not count as slowness. A request is
// due when its client's previous answer arrives; its lag is how much later
// the driver sent it.
func closedLoop(ctx context.Context, cl *client, s *stream, clients, n int, rec *recorder) float64 {
	var next atomic.Int64
	start := time.Now()
	rates := make([]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			done := 0
			due := start
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				r := s.at(i)
				t0 := time.Now()
				body, err := cl.do(ctx, r)
				answered := time.Now()
				rec.add("req", i, r, body, err, answered.Sub(t0), t0.Sub(due))
				due = answered
				if err == nil {
					done++
				}
			}
			rates[c] = float64(done) / time.Since(start).Seconds()
		}(c)
	}
	wg.Wait()
	ops := 0.0
	for _, r := range rates {
		ops += r
	}
	return ops
}

// openLoop sends n requests at rate per second over `workers`
// connections. Request i is due at start + i/rate; its latency counts from
// then, so a stall also charges the requests queued behind it, and its lag
// is how late it was actually sent. It returns the completed requests per
// second of wall time until the last answer.
func openLoop(ctx context.Context, cl *client, s *stream, rate float64, workers, n int, rec *recorder) float64 {
	var next, done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := s.at(i)
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				body, err := cl.do(ctx, r)
				rec.add("req", i, r, body, err, time.Since(due), sent.Sub(due))
				if err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// sendAll sends reqs untimed over two clients, in order of index.
func sendAll(ctx context.Context, cl *client, tag string, reqs []request, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				body, err := cl.do(ctx, reqs[i])
				rec.add(tag, i, reqs[i], body, err, -1, -1)
			}
		}()
	}
	wg.Wait()
}

// daemonStats is the part of GET /v1/stats the per-layer metrics read.
type daemonStats struct {
	Service struct {
		Admitted  int64 `json:"admitted"`
		Coalesced int64 `json:"coalesced"`
		StoreHits int64 `json:"store_hits"`
	} `json:"service"`
	MapperSearch cacheStats `json:"mapper_search_cache"`
	MapperTile   cacheStats `json:"mapper_tile_cache"`
	MapperWarm   cacheStats `json:"mapper_warm_store"`
	Guided       struct {
		Evaluated int64 `json:"evaluated"`
		Pruned    int64 `json:"pruned"`
	} `json:"guided_search"`
	AuthOptimal cacheStats `json:"authblock_optimal"`
	AuthDecomp  cacheStats `json:"authblock_decomp"`
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

type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Shared int64 `json:"shared"`
	Runs   int64 `json:"runs"`
}

func getStats(base string) (daemonStats, error) {
	var st daemonStats
	resp, err := probe.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
