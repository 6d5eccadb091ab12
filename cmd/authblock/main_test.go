package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestVerticalSweepGolden runs the README example `authblock -sweep
// vertical -max 310` in process, through the service's wire request, and
// compares its stdout with testdata/sweep_vertical_max310.golden, the
// output of the command before it was routed through the service.
func TestVerticalSweepGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-sweep", "vertical", "-max", "310"}, &out); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/sweep_vertical_max310.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestCountAlongNonPositiveStep: a consumer step that never advances must
// not hang the command before ConsumerGrid.Validate can reject it, so
// countAlong returns 0 promptly for it.
func TestCountAlongNonPositiveStep(t *testing.T) {
	for _, c := range []struct{ off, step, win int }{
		{0, -1, 20}, // -cstep -1x20
		{0, 0, 0},   // -cwin 0x20 -cstep 0x20 -coff 0x0
		{10, 0, 20}, // -cstep 0x20
	} {
		done := make(chan int, 1)
		go func() { done <- countAlong(30, c.off, c.step, c.win) }()
		select {
		case n := <-done:
			if n != 0 {
				t.Errorf("countAlong(30, %d, %d, %d) = %d, want 0", c.off, c.step, c.win, n)
			}
		case <-time.After(time.Second):
			t.Fatalf("countAlong(30, %d, %d, %d) did not return within a second", c.off, c.step, c.win)
		}
	}
}

// TestNegativeFlagRejected: a flag given a negative value fails with an
// error naming the wire field it fills, instead of falling back to the
// default; the consumer offset -coff is signed and takes negative values.
func TestNegativeFlagRejected(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-tensor", "-1x30x30"}, "producer.c"},
		{[]string{"-cch", "-1"}, "consumer.tile_c"},
		{[]string{"-word", "-16"}, "word_bits"},
		{[]string{"-hash", "-64"}, "hash_bits"},
		{[]string{"-max", "-1"}, "max_u"},
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
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-coff", "-2x-3", "-max", "4"}, &out); err != nil {
		t.Errorf("negative -coff: %v", err)
	}
}
