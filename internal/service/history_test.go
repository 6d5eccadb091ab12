package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestGuidedSweepSameAtAnyWidth sends request 13 of the benchmark's seed-1
// sweep-front workload, a guided front-only ResNet-18 sweep, through
// SweepBody. The answer must be the same bytes at widths 1, 2 and 4, and at
// width 1 also after a guided ResNet-18 schedule has left warm-start seeds
// for the network's layers. Guided answers on ResNet-18's stride-2
// downsamples depend on such seeds (DESIGN.md §12), so a sweep that read
// or wrote the warm-start store would fail here: its points would pass
// seeds to each other in the order its workers finish.
func TestGuidedSweepSameAtAnyWidth(t *testing.T) {
	const sweep = `{"network": "resnet18",
		"specs": [
			{"name": "eyeriss-pe14x12-glb16kB-HBM2-64B", "pes_x": 14, "pes_y": 12, "global_buffer_bytes": 16384, "dram": "HBM2-64B"},
			{"name": "eyeriss-pe14x12-glb131kB-LPDDR4-64B", "pes_x": 14, "pes_y": 12, "global_buffer_bytes": 134144, "dram": "LPDDR4-64B"},
			{"name": "eyeriss-pe28x24-glb131kB-HBM2-64B", "pes_x": 28, "pes_y": 24, "global_buffer_bytes": 134144, "dram": "HBM2-64B"},
			{"name": "eyeriss-pe28x24-glb96kB-LPDDR4-64B", "pes_x": 28, "pes_y": 24, "global_buffer_bytes": 98304, "dram": "LPDDR4-64B"}],
		"cryptos": [{"engine": "serial", "count": 30}, {"engine": "parallel", "count": 4}],
		"anneal_iterations": 200, "mapper": {"mode": "guided"}, "front": true}`
	const schedule = `{"network": "resnet18",
		"arch": {"pes_x": 28, "pes_y": 24, "global_buffer_bytes": 32768, "dram": "HBM2-64B"},
		"crypto": {"engine": "parallel", "count": 4}, "anneal_iterations": 10, "mapper": {"mode": "guided"}}`
	ctx := context.Background()
	run := func(width int, scheduleFirst bool) []byte {
		t.Helper()
		coldMemos()
		svc := New(Config{MaxParallel: width})
		if scheduleFirst {
			var w ScheduleWire
			if err := json.Unmarshal([]byte(schedule), &w); err != nil {
				t.Fatal(err)
			}
			req, err := w.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := svc.ScheduleBody(ctx, req, nil); err != nil {
				t.Fatal(err)
			}
		}
		var w SweepWire
		if err := json.Unmarshal([]byte(sweep), &w); err != nil {
			t.Fatal(err)
		}
		req, err := w.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		d := req.Defaulted()
		_, body, _, err := svc.SweepBody(ctx, &d, nil)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	defer coldMemos()
	want := run(1, false)
	for _, width := range []int{2, 4} {
		if got := run(width, false); !bytes.Equal(got, want) {
			t.Errorf("width %d answers differently from width 1:\n got: %.400s\nwant: %.400s", width, got, want)
		}
	}
	if got := run(1, true); !bytes.Equal(got, want) {
		t.Errorf("after a guided schedule the answer differs:\n got: %.400s\nwant: %.400s", got, want)
	}
}
