package main

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// TestPrunedSweepGolden runs the README example `dse -workload alexnet
// -prune` in process, through the service's wire request, and compares its
// stdout with testdata/alexnet_prune.golden, the output of the command
// before it was routed through the service.
func TestPrunedSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling runs")
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-workload", "alexnet", "-prune"}, &out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/alexnet_prune.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
