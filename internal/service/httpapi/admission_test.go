package httpapi_test

import (
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"secureloop/internal/service"
)

// TestAdmissionBoundsMagnitudes: each body carries one magnitude that, were
// it admitted, would run a divisor scan or grid loop far past the
// request's deadline, or, for top_k and the decomposition classes,
// allocate tens of gigabytes or more. Validation refuses each with 400
// well inside the deadline, without admitting it and without allocating
// for it.
func TestAdmissionBoundsMagnitudes(t *testing.T) {
	svc, c := newServer(t, service.Config{})
	for _, tc := range []struct{ name, path, body, want string }{
		{"layer dimension", "/v1/schedule",
			`{"network":{"name":"h","layers":[{"name":"l","c":1,"m":99999999999999997,"r":1,"s":1,"p":1,"q":1}]},"deadline_ms":200}`,
			"a dimension exceeds 2^20"},
		{"authblock tile", "/v1/authblock",
			`{"producer":{"c":1,"h":999999937,"w":999999929,"tile_c":1,"tile_h":999999937,"tile_w":999999929,"writes_per_tile":1},
			  "consumer":{"tile_c":1,"win_h":999999937,"win_w":999999929,"step_h":999999937,"step_w":999999929,
			              "count_c":1,"count_h":1,"count_w":1,"fetches_per_tile":1},"deadline_ms":200}`,
			"producer extent exceeds 2^20"},
		{"consumer count", "/v1/authblock",
			`{"producer":{"c":1,"h":30,"w":30,"tile_c":1,"tile_h":30,"tile_w":30,"writes_per_tile":1},
			  "consumer":{"tile_c":1,"win_h":30,"win_w":20,"step_h":30,"step_w":20,"off_w":10,
			              "count_c":1,"count_h":1000000000000,"count_w":1,"fetches_per_tile":1}}`,
			"count exceeds 2^20"},
		{"top_k", "/v1/schedule", `{"network":"alexnet","top_k":100000}`, "TopK must be in [1, 16]"},
		// Inside every grid cap, but the decomposition would walk 2^40
		// window-tile segments on the row axis.
		{"decomposition segments", "/v1/authblock",
			`{"producer":{"c":1,"h":1048576,"w":1,"tile_c":1,"tile_h":1,"tile_w":1,"writes_per_tile":1},
			  "consumer":{"tile_c":1,"win_h":1048576,"win_w":1,"step_h":1,"step_w":1,
			              "count_c":1,"count_h":1048576,"count_w":1,"fetches_per_tile":1}}`,
			"more than 2^20 producer tile segments"},
		// Inside every grid cap, but the decomposition would hold about
		// 3*10^10 classes, terabytes of memory.
		{"decomposition classes", "/v1/authblock",
			`{"producer":{"c":1024,"h":1048576,"w":1048576,"tile_c":256,"tile_h":4096,"tile_w":4096,"writes_per_tile":1},
			  "consumer":{"tile_c":255,"win_h":4095,"win_w":4095,"step_h":1,"step_w":1,
			              "count_c":256,"count_h":4096,"count_w":4096,"fetches_per_tile":1}}`,
			"more than 2^16 classes"},
		// Inside every cap above, but one candidate evaluation would walk
		// 961 classes times 65534 channel slabs (about 6.3*10^7 slabs) and,
		// in the second body, 3969 classes times 255254 (about 10^9).
		{"slab work", "/v1/authblock",
			`{"producer":{"c":65535,"h":33,"w":33,"tile_c":65535,"tile_h":33,"tile_w":33,"writes_per_tile":1},
			  "consumer":{"tile_c":65534,"win_h":3,"win_w":3,"step_h":1,"step_w":1,
			              "count_c":1,"count_h":31,"count_w":31,"fetches_per_tile":1},"deadline_ms":200}`,
			"more than 2^22 slabs"},
		{"slab work, larger", "/v1/authblock",
			`{"producer":{"c":255255,"h":129,"w":129,"tile_c":255255,"tile_h":129,"tile_w":129,"writes_per_tile":1},
			  "consumer":{"tile_c":255254,"win_h":5,"win_w":5,"step_h":2,"step_w":2,
			              "count_c":1,"count_h":63,"count_w":63,"fetches_per_tile":1},"deadline_ms":200}`,
			"more than 2^22 slabs"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		resp, err := http.Post(c.BaseURL+tc.path, "application/json", strings.NewReader(tc.body))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %q", tc.name, resp.StatusCode, msg, tc.want)
		}
		if elapsed > 50*time.Millisecond {
			t.Errorf("%s: refused after %v, want within 50ms", tc.name, elapsed)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: the refusal allocated %d bytes", tc.name, alloc)
		}
	}
	if st := svc.Stats().Service; st.Admitted != 0 {
		t.Errorf("admitted = %d, want 0", st.Admitted)
	}
}

// TestSlabWorkUnderCapMeetsDeadline: a body just under the slab-work cap
// (961 classes times 4096 channel slabs, 3,936,256 of 4,194,304) is
// admitted, and with a 200 ms deadline it is answered within 2 s: the
// search polls its context before every candidate it evaluates, so it
// overruns the deadline by at most one evaluation.
func TestSlabWorkUnderCapMeetsDeadline(t *testing.T) {
	_, c := newServer(t, service.Config{})
	const body = `{"producer":{"c":4096,"h":33,"w":33,"tile_c":4096,"tile_h":33,"tile_w":33,"writes_per_tile":1},
		"consumer":{"tile_c":4095,"win_h":3,"win_w":3,"step_h":1,"step_w":1,
		            "count_c":1,"count_h":31,"count_w":31,"fetches_per_tile":1},"deadline_ms":200}`
	start := time.Now()
	resp, err := http.Post(c.BaseURL+"/v1/authblock", "application/json", strings.NewReader(body))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("HTTP %d %s, want 200 or 504", resp.StatusCode, msg)
	}
	if elapsed > 2*time.Second {
		t.Errorf("answered after %v, want within 2s", elapsed)
	}
	t.Logf("HTTP %d after %v", resp.StatusCode, elapsed)
}
