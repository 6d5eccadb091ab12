package httpapi_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"secureloop/internal/authblock"
	"secureloop/internal/mapper"
	"secureloop/internal/service"
	"secureloop/internal/service/httpapi"
	"secureloop/internal/store"
)

// diffCase is one request of the differential corpus: its endpoint, its
// wire body, and bodies that differ from it only in fields spelled out at
// their defaults. The guided ResNet-18 schedule is left out: the guided
// search still prunes ResNet-18's stride-2 downsamples against a floor
// that overshoots there, so its answers depend on earlier searches.
type diffCase struct {
	name, path, body string
	variants         []string
}

var diffCorpus = []diffCase{
	{"alexnet exhaustive crypt-opt-cross", "/v1/schedule", `{"network": "alexnet"}`, []string{
		`{"network": "alexnet", "algorithm": "crypt-opt-cross"}`,
		`{"network": "alexnet", "top_k": 6}`,
		`{"network": "alexnet", "crypto": {"engine": "pipelined", "count": 1}}`,
		`{"network": "alexnet", "mapper": {"mode": "exhaustive"}, "objective": "latency", "anneal_iterations": 1000}`,
	}},
	{"resnet18 crypt-opt-single", "/v1/schedule", `{"network": "resnet18", "algorithm": "Crypt-Opt-Single"}`, []string{
		`{"network": "resnet18", "algorithm": "crypt-opt-single", "top_k": 6, "crypto": {"engine": "pipelined"}}`,
	}},
	{"mobilenetv2 guided eps 0", "/v1/schedule", `{"network": "mobilenetv2", "mapper": {"mode": "guided"}}`, []string{
		`{"network": "mobilenetv2", "mapper": {"mode": "guided", "epsilon": 0}, "top_k": 6}`,
	}},
	{"alexnet 2x2 front sweep", "/v1/sweep",
		`{"network": "alexnet", "specs": [{}, {"pes_x": 16, "pes_y": 14}], "cryptos": [{}, {"engine": "parallel", "count": 2}], "front": true}`,
		[]string{
			`{"network": "alexnet", "specs": [{}, {"pes_x": 16, "pes_y": 14}], "cryptos": [{"engine": "pipelined", "count": 1}, {"engine": "parallel", "count": 2}], "front": true, "algorithm": "crypt-opt-cross"}`,
			`{"network": "alexnet", "specs": [{}, {"pes_x": 16, "pes_y": 14}], "cryptos": [{}, {"engine": "parallel", "count": 2}], "front": true, "anneal_iterations": 1000}`,
		}},
	{"authblock max_u 16", "/v1/authblock",
		`{"producer": {"c": 64, "h": 56, "w": 56, "tile_c": 32, "tile_h": 14, "tile_w": 8, "writes_per_tile": 1},
		  "consumer": {"tile_c": 64, "win_h": 10, "win_w": 10, "step_h": 8, "step_w": 8, "off_h": -1, "off_w": -1,
		               "count_c": 1, "count_h": 7, "count_w": 7, "fetches_per_tile": 1},
		  "max_u": 16}`,
		[]string{
			`{"producer": {"c": 64, "h": 56, "w": 56, "tile_c": 32, "tile_h": 14, "tile_w": 8, "writes_per_tile": 1},
			  "consumer": {"tile_c": 64, "win_h": 10, "win_w": 10, "step_h": 8, "step_w": 8, "off_h": -1, "off_w": -1,
			               "count_c": 1, "count_h": 7, "count_w": 7, "fetches_per_tile": 1},
			  "max_u": 16, "orientation": "horizontal", "word_bits": 8, "hash_bits": 64}`,
		}},
}

// TestServingPathsAgree: every corpus request returns the same bytes on
// every serving path — the pure compute call on a store-less service,
// Begin on a fresh store, Begin on a fresh service over that store closed
// and reopened (a replay: schedules and AuthBlock searches report a store
// hit, and the store answers every point a sweep evaluates), a coalesced
// follower held behind a gated leader, and HTTP plain and SSE. The
// followers send the variant bodies, so they also show that bodies
// differing only in defaulted fields share one flight key. The in-process
// memos are dropped before every path that computes or replays, so none
// reads another's memo; the HTTP paths exercise the serving layer and
// compute over warm memos.
func TestServingPathsAgree(t *testing.T) {
	for _, tc := range diffCorpus {
		t.Run(tc.name, func(t *testing.T) {
			resetMemos()
			want := computeBody(t, service.New(service.Config{}), tc)

			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			resetMemos()
			checkBody(t, "fresh store", want, awaitBody(t, begin(t, service.New(service.Config{Store: st}), tc.path, tc.body, service.SubmitOptions{})))
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st, err = store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			resetMemos()
			p := begin(t, service.New(service.Config{Store: st}), tc.path, tc.body, service.SubmitOptions{})
			checkBody(t, "reopened store", want, awaitBody(t, p))
			if _, _, storeHit, _, _ := p.Result(); tc.path != "/v1/sweep" && !storeHit {
				t.Error("reopened store: no store hit")
			}
			if sw := p.Accounting().Sweep; tc.path == "/v1/sweep" && (sw.FullEvals == 0 || sw.StoreHits != sw.FullEvals) {
				t.Errorf("reopened store: %d of %d evaluated points store-answered", sw.StoreHits, sw.FullEvals)
			}

			resetMemos()
			checkCoalesced(t, tc, want)

			srv := httptest.NewServer(httpapi.NewHandler(service.New(service.Config{}), httpapi.Options{}))
			defer srv.Close()
			checkBody(t, "HTTP plain", want, postBody(t, srv.URL+tc.path, tc.body, false))
			checkBody(t, "HTTP SSE", want, postBody(t, srv.URL+tc.path, tc.body, true))
		})
	}
}

// TestIgnoredFieldsShareKeys: a field the computation ignores — epsilon in
// an exhaustive search, an orientation without a sweep curve,
// disable_warm_start in a sweep, whose points never use warm starts —
// splits no key. The body with it joins the plain body's flight and replays
// the plain body's store records (a sweep's from the points' records), and
// a schedule that differs from the plain one in its annealing budget as
// well runs no mapper search over that store: every layer replays the
// plain request's mapper records.
func TestIgnoredFieldsShareKeys(t *testing.T) {
	const authBlock = `{"producer": {"c": 64, "h": 56, "w": 56, "tile_c": 32, "tile_h": 14, "tile_w": 8, "writes_per_tile": 1},
		"consumer": {"tile_c": 64, "win_h": 10, "win_w": 10, "step_h": 8, "step_w": 8, "off_h": -1, "off_w": -1,
		             "count_c": 1, "count_h": 7, "count_w": 7, "fetches_per_tile": 1}`
	const guidedSweep = `{"network": "alexnet", "specs": [{}, {"global_buffer_bytes": 16384}], "cryptos": [{}],
		"anneal_iterations": 20, "front": true, "mapper": {"mode": "guided"`
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []diffCase{
		{"exhaustive epsilon", "/v1/schedule", `{"network": "alexnet"}`,
			[]string{`{"network": "alexnet", "mapper": {"epsilon": 0.5}}`}},
		{"orientation without max_u", "/v1/authblock", authBlock + `}`,
			[]string{authBlock + `, "orientation": "vertical"}`}},
		{"sweep disable_warm_start", "/v1/sweep", guidedSweep + `}}`,
			[]string{guidedSweep + `, "disable_warm_start": true}}`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetMemos()
			want := computeBody(t, service.New(service.Config{}), tc)
			resetMemos()
			checkCoalesced(t, tc, want)

			resetMemos()
			awaitBody(t, begin(t, service.New(service.Config{Store: st}), tc.path, tc.body, service.SubmitOptions{}))
			resetMemos()
			p := begin(t, service.New(service.Config{Store: st}), tc.path, tc.variants[0], service.SubmitOptions{})
			checkBody(t, "store replay", want, awaitBody(t, p))
			_, _, storeHit, _, _ := p.Result()
			if sw := p.Accounting().Sweep; tc.path == "/v1/sweep" {
				storeHit = sw.FullEvals > 0 && sw.StoreHits == sw.FullEvals
			}
			if !storeHit {
				t.Errorf("%s missed the plain body's store records", tc.variants[0])
			}
		})
	}
	resetMemos()
	p := begin(t, service.New(service.Config{Store: st}), "/v1/schedule",
		`{"network": "alexnet", "mapper": {"epsilon": 0.5}, "anneal_iterations": 999}`, service.SubmitOptions{})
	awaitBody(t, p)
	if n := p.Accounting().MapperSearches; n != 0 {
		t.Errorf("the epsilon schedule ran %d mapper searches over the plain schedule's store, want 0", n)
	}
}

func resetMemos() {
	mapper.ResetCaches()
	authblock.ResetCaches()
}

func checkBody(t *testing.T, path string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes differ from the store-less compute's %d:\n got: %.300s\nwant: %.300s", path, len(got), len(want), got, want)
	}
}

// resolve decodes and resolves a corpus body as the HTTP layer does.
func resolve(t *testing.T, path, body string) any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var req any
	var err error
	switch path {
	case "/v1/schedule":
		var w service.ScheduleWire
		if err = dec.Decode(&w); err == nil {
			req, err = w.Resolve()
		}
	case "/v1/sweep":
		var w service.SweepWire
		if err = dec.Decode(&w); err == nil {
			req, err = w.Resolve()
		}
	case "/v1/authblock":
		var w service.AuthBlockWire
		if err = dec.Decode(&w); err == nil {
			req, err = w.Resolve()
		}
	}
	if err != nil {
		t.Fatalf("resolve %s: %v", body, err)
	}
	return req
}

// computeBody runs the request through the service's pure compute call.
func computeBody(t *testing.T, svc *service.Service, tc diffCase) []byte {
	t.Helper()
	ctx := context.Background()
	var body []byte
	var err error
	switch req := resolve(t, tc.path, tc.body).(type) {
	case *service.ScheduleRequest:
		_, body, _, err = svc.ScheduleBody(ctx, req, nil)
	case *service.SweepRequest:
		d := req.Defaulted()
		_, body, _, err = svc.SweepBody(ctx, &d, nil)
	case *service.AuthBlockRequest:
		_, body, _, err = svc.AuthBlockBody(ctx, req, nil)
	}
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	return body
}

// begin submits one wire body through the service's Begin call.
func begin(t *testing.T, svc *service.Service, path, body string, opts service.SubmitOptions) *service.Pending {
	t.Helper()
	ctx := context.Background()
	var p *service.Pending
	var err error
	switch req := resolve(t, path, body).(type) {
	case *service.ScheduleRequest:
		p, err = svc.BeginSchedule(ctx, req, opts)
	case *service.SweepRequest:
		p, err = svc.BeginSweep(ctx, req, opts)
	case *service.AuthBlockRequest:
		p, err = svc.BeginAuthBlock(ctx, req, opts)
	}
	if err != nil {
		t.Fatalf("begin %s: %v", body, err)
	}
	return p
}

func awaitBody(t *testing.T, p *service.Pending) []byte {
	t.Helper()
	body, _, _, _, err := p.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return body
}

// checkCoalesced holds a leader's compute, submits the body again and
// every variant as followers, and checks that each joined the leader's
// flight and received its bytes.
func checkCoalesced(t *testing.T, tc diffCase, want []byte) {
	t.Helper()
	gate := newGateObserver()
	svc := service.New(service.Config{Observe: gate})
	leader := begin(t, svc, tc.path, tc.body, service.SubmitOptions{})
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("leader never started computing")
	}
	bodies := append([]string{tc.body}, tc.variants...)
	followers := make([]*service.Pending, len(bodies))
	for i, b := range bodies {
		followers[i] = begin(t, svc, tc.path, b, service.SubmitOptions{})
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Service.Coalesced < int64(len(bodies)) {
		if time.Now().After(deadline) {
			close(gate.release)
			t.Fatalf("%d of %d followers joined the leader's flight", svc.Stats().Service.Coalesced, len(bodies))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	checkBody(t, "gated leader", want, awaitBody(t, leader))
	for i, p := range followers {
		body, _, _, coalesced, err := p.Result()
		if err != nil {
			t.Fatalf("follower %s: %v", bodies[i], err)
		}
		if !coalesced {
			t.Errorf("follower %s ran its own flight", bodies[i])
		}
		checkBody(t, "coalesced follower "+bodies[i], want, body)
	}
}

// postBody serves one wire body over HTTP. Plain returns the response
// body; SSE returns the result frame's data plus the newline the frame
// format trims from the canonical body.
func postBody(t *testing.T, url, body string, sse bool) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, msg)
	}
	if !sse {
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "result":
			return append([]byte(strings.TrimPrefix(line, "data: ")), '\n')
		case strings.HasPrefix(line, "data: ") && event == "error":
			t.Fatalf("SSE error frame: %s", line)
		}
	}
	t.Fatalf("SSE stream ended without a result frame (%v)", sc.Err())
	return nil
}
