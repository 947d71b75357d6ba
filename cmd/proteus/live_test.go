package main

import (
	"strings"
	"testing"
	"time"

	"proteus/internal/obs"
)

// TestWriteNarrative pins the printed decision narrative: one line per
// span in the order given, the fixed four-column layout, the span's End
// (not its Start) as the stamp, and the parameter-server layer left out.
func TestWriteNarrative(t *testing.T) {
	spans := []obs.SpanData{
		{Component: "core", Name: "acquire", Detail: "reliable tier: 3x c4.xlarge on-demand"},
		{Component: "ps", Name: "snapshot", Detail: "m0/paramserv: partition 0 snapshotted (420 bytes)"},
		{Component: "agileml", Name: "stage-transition", Detail: "stage1 -> stage2", Start: 2 * time.Minute, End: 2 * time.Minute},
		{Component: "ps", Name: "install", Detail: "m3/activeps: partition 0 installed (420 bytes)", Start: 2 * time.Minute, End: 2 * time.Minute},
		{Component: "market", Name: "allocation", Detail: "alloc 1: 8x m4.2xlarge spot terminated", Start: 0, End: 4*time.Minute + 6750*time.Millisecond},
		{Component: "bidbrain", Name: "bid", Start: time.Minute, End: time.Minute},
	}
	var out strings.Builder
	if err := writeNarrative(&out, spans); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"        0s  core      acquire           reliable tier: 3x c4.xlarge on-demand\n" +
		"      2m0s  agileml   stage-transition  stage1 -> stage2\n" +
		"      4m7s  market    allocation        alloc 1: 8x m4.2xlarge spot terminated\n" +
		"      1m0s  bidbrain  bid               \n"
	if out.String() != want {
		t.Fatalf("narrative:\n%s\nwant:\n%s", out.String(), want)
	}
}
