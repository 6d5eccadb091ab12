package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"secureloop/internal/arch"
	"secureloop/internal/cryptoengine"
	"secureloop/internal/store"
)

// decodeWire decodes one request body the way internal/service/httpapi
// does: a single JSON document, unknown fields rejected.
func decodeWire(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// Wire kinds of FuzzWireRequest, selected by the first fuzz argument.
const (
	wireSchedule = iota
	wireSweep
	wireAuthBlock
	wireKinds
)

// FuzzWireRequest drives the only input surface remote clients reach. Each
// body is decoded as the HTTP layer does, resolved, defaulted and
// validated, then keyed and given its admission memory estimate — the
// whole path a request takes before admission. It asserts that nothing
// panics, that the same bytes resolve to the same store key twice, and that
// a sweep's estimate is positive and never drops when points are added.
// Each admitted body is then submitted under a 200 ms deadline and must
// resolve, answered or failed, within 2 s: validation bounds the work.
func FuzzWireRequest(f *testing.F) {
	// The request bodies of the README's curl examples, then extreme
	// values for every numeric knob, then negative ones (refused, except
	// the consumer's signed offsets).
	seeds := []struct {
		kind byte
		body string
	}{
		{wireSchedule, `{"network": "alexnet", "algorithm": "Crypt-Opt-Cross"}`},
		{wireSchedule, `{"network": "resnet18",
       "arch": {"pes_x": 16, "pes_y": 14, "dram": "LPDDR4-128B"},
       "crypto": {"engine": "parallel", "count": 2},
       "objective": "edp", "mapper": {"mode": "guided"},
       "deadline_ms": 120000}`},
		{wireSchedule, `{"network": "alexnet"}`},
		{wireSweep, `{"network": "alexnet", "front": true, "mapper": {"mode": "guided"}}`},
		{wireAuthBlock, `{"producer": {"c": 64, "h": 56, "w": 56, "tile_c": 64, "tile_h": 8, "tile_w": 8, "writes_per_tile": 1},
       "consumer": {"tile_c": 64, "win_h": 10, "win_w": 10, "step_h": 8, "step_w": 8,
                    "count_c": 1, "count_h": 7, "count_w": 7, "fetches_per_tile": 1},
       "max_u": 8}`},
		{wireSchedule, `{"network": "alexnet", "arch": {"pes_x": 9000000000000000000, "global_buffer_bytes": 9000000000000000000, "clock_hz": 1e308},
       "crypto": {"engine": "serial", "count": 9000000000000000000}, "top_k": 9000000000000000000,
       "mapper": {"mode": "guided", "epsilon": 1e308}}`},
		{wireSchedule, `{"network": {"name": "x", "layers": [{"c": 9000000000, "m": 9000000000, "r": 1, "s": 1, "p": 9000000000, "q": 9000000000}]}}`},
		{wireSweep, `{"network": "resnet18", "specs": [{"pes_x": 9000000000000000000}, {}], "cryptos": [{"count": 9000000000000000000}]}`},
		{wireAuthBlock, `{"producer": {"c": 9000000000000000000, "h": 1, "w": 1, "tile_c": 1, "tile_h": 1, "tile_w": 1, "writes_per_tile": 1},
       "consumer": {"tile_c": 1, "win_h": 1, "win_w": 1, "step_h": 1, "step_w": 1, "count_c": 9000000000000000000, "count_h": 1, "count_w": 1, "fetches_per_tile": 1},
       "word_bits": 9000000000000000000, "max_u": 9000000000000000000}`},
		{wireSchedule, `{"network": "alexnet", "arch": {"pes_x": -4}, "crypto": {"count": -1}, "top_k": -6}`},
		{wireSweep, `{"network": "alexnet", "specs": [{}, {"global_buffer_bytes": -1}], "cryptos": [{}], "mapper": {"epsilon": -0.5}}`},
		{wireAuthBlock, `{"producer": {"c": -64, "h": 56, "w": 56, "tile_c": 32, "tile_h": 14, "tile_w": 8, "writes_per_tile": 1},
       "consumer": {"tile_c": 64, "win_h": 10, "win_w": 10, "step_h": 8, "step_w": 8, "off_h": -1, "off_w": -1,
                    "count_c": 1, "count_h": 7, "count_w": 7, "fetches_per_tile": 1}}`},
	}
	for _, s := range seeds {
		f.Add(s.kind, []byte(s.body))
	}
	svc := New(Config{MaxParallel: 2})
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		// begin submits the admitted request; the key closures set it.
		var begin func(context.Context, SubmitOptions) (*Pending, error)
		switch kind % wireKinds {
		case wireSchedule:
			checkSameKey(t, body, func() (store.Key, bool) {
				var w ScheduleWire
				if decodeWire(body, &w) != nil {
					return store.Key{}, false
				}
				req, err := w.Resolve()
				if err != nil || req.Validate() != nil {
					return store.Key{}, false
				}
				if est := scheduleMemEstimate(req); est <= 0 {
					t.Fatalf("schedule estimate %d for %q", est, body)
				}
				begin = func(ctx context.Context, o SubmitOptions) (*Pending, error) { return svc.BeginSchedule(ctx, req, o) }
				return persistScheduleKey(req), true
			})
		case wireSweep:
			checkSameKey(t, body, func() (store.Key, bool) {
				var w SweepWire
				if decodeWire(body, &w) != nil {
					return store.Key{}, false
				}
				r, err := w.Resolve()
				if err != nil {
					return store.Key{}, false
				}
				req := r.Defaulted()
				if req.Validate() != nil {
					return store.Key{}, false
				}
				checkSweepEstimate(t, svc, &req)
				begin = func(ctx context.Context, o SubmitOptions) (*Pending, error) { return svc.BeginSweep(ctx, &req, o) }
				return persistSweepKey(&req), true
			})
		case wireAuthBlock:
			checkSameKey(t, body, func() (store.Key, bool) {
				var w AuthBlockWire
				if decodeWire(body, &w) != nil {
					return store.Key{}, false
				}
				req, err := w.Resolve()
				if err != nil || req.Validate() != nil {
					return store.Key{}, false
				}
				checkAuthBlockEstimate(t, req)
				begin = func(ctx context.Context, o SubmitOptions) (*Pending, error) { return svc.BeginAuthBlock(ctx, req, o) }
				return persistAuthBlockKey(req), true
			})
		}
		if begin != nil {
			checkResolvesPromptly(t, body, begin)
		}
	})
}

// checkResolvesPromptly submits an admitted request under a 200 ms
// deadline and fails unless its result, an answer or an error, is ready
// within 2 s.
func checkResolvesPromptly(t *testing.T, body []byte, begin func(context.Context, SubmitOptions) (*Pending, error)) {
	t.Helper()
	p, err := begin(context.Background(), SubmitOptions{Deadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("validated request refused by Begin: %v for %q", err, body)
	}
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		p.Cancel()
		t.Fatalf("admitted request unresolved 2 s after submission under a 200 ms deadline: %q", body)
	}
}

// checkSameKey runs one decode → key pipeline twice over the same bytes:
// both runs must agree on whether the body is admissible and on its key.
func checkSameKey(t *testing.T, body []byte, keyOf func() (store.Key, bool)) {
	t.Helper()
	k1, ok1 := keyOf()
	k2, ok2 := keyOf()
	if ok1 != ok2 || k1 != k2 {
		t.Fatalf("same bytes resolved differently: (%v, %v) then (%v, %v) for %q", k1, ok1, k2, ok2, body)
	}
}

// checkSweepEstimate asserts the sweep's admission estimate is positive and
// does not drop when the design space grows along either axis.
func checkSweepEstimate(t *testing.T, svc *Service, req *SweepRequest) {
	t.Helper()
	est := svc.sweepMemEstimate(req)
	if est <= 0 {
		t.Fatalf("sweep estimate %d for %d x %d points", est, len(req.Specs), len(req.Cryptos))
	}
	moreSpecs := *req
	moreSpecs.Specs = append(append([]arch.Spec(nil), req.Specs...), req.Specs[0])
	moreCryptos := *req
	moreCryptos.Cryptos = append(append([]cryptoengine.Config(nil), req.Cryptos...), req.Cryptos[0])
	for _, grown := range []*SweepRequest{&moreSpecs, &moreCryptos} {
		if g := svc.sweepMemEstimate(grown); g < est {
			t.Fatalf("estimate dropped from %d to %d when the space grew to %d x %d points",
				est, g, len(grown.Specs), len(grown.Cryptos))
		}
	}
}

// checkAuthBlockEstimate asserts the authblock admission estimate is
// positive and does not drop as the requested curve grows.
func checkAuthBlockEstimate(t *testing.T, req *AuthBlockRequest) {
	t.Helper()
	est := authBlockMemEstimate(req)
	if est <= 0 {
		t.Fatalf("authblock estimate %d for max_u %d", est, req.MaxU)
	}
	for _, more := range []int{req.MaxU + 1, 2 * req.MaxU, math.MaxInt} {
		if more < req.MaxU {
			continue // 2*MaxU wrapped
		}
		grown := *req
		grown.MaxU = more
		if g := authBlockMemEstimate(&grown); g < est {
			t.Fatalf("estimate dropped from %d to %d when max_u grew from %d to %d", est, g, req.MaxU, more)
		}
	}
}
