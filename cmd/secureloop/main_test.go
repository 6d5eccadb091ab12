package main

import (
	"bytes"
	"context"
	"os"
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
