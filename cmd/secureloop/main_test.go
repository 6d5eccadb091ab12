package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestCompareGolden runs the README example `secureloop -workload alexnet
// -compare` in process, through the service's wire request, and compares
// its stdout with testdata/alexnet_compare.golden, the output of the
// command before it was routed through the service.
func TestCompareGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling runs")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "alexnet", "-compare"}, &out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/alexnet_compare.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestNegativeFlagRejected: a flag given a negative value fails before any
// scheduling, with an error naming the wire field it fills, instead of
// falling back to the default.
func TestNegativeFlagRejected(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-pe", "-4x12"}, "arch.pes_x"},
		{[]string{"-glb", "-1"}, "arch.global_buffer_bytes"},
		{[]string{"-count", "-1"}, "crypto.count"},
		{[]string{"-topk", "-1"}, "top_k"},
		{[]string{"-iters", "-1"}, "anneal_iterations"},
		{[]string{"-guided", "-epsilon", "-0.5"}, "mapper.epsilon"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%v: err = %v, want one naming %s", tc.args, err, tc.field)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, out.String())
		}
	}
}
