package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"photon/internal/core"
)

// The one volatile field of the default output: toolchain and host.
var goLine = regexp.MustCompile(`(?m)^(  go: +).*$`)

// TestDefaultOutputGolden pins the default report — effective config,
// layout, backends, experiment list — byte for byte, with the
// toolchain/host line masked. Regenerate testdata/default.golden from
// `photon-info` when a default or the experiment list changes on
// purpose.
func TestDefaultOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := info(&out, core.Config{}); err != nil {
		t.Fatal(err)
	}
	got := goLine.ReplaceAllString(out.String(), "${1}<toolchain and host>")
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("default output changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestSnapshotModes runs each job-booting mode and checks its report
// carries the figures the mode exists to show.
func TestSnapshotModes(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(io.Writer) error
		want []string
	}{
		{"metrics", func(w io.Writer) error { return info(w, core.Config{Metrics: true}) },
			[]string{"metrics snapshot (rank 0", "put/initiator", "put/remote", "peer1_entries_consumed"}},
		{"cluster", clusterInfo,
			[]string{"4/4 peers reachable", "put/initiator", "slowest peers"}},
		{"flight", flightInfo,
			[]string{`"to": "down"`, `"tcp_acks_standalone"`, `"events"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := c.run(&out); err != nil {
				t.Fatal(err)
			}
			for _, want := range c.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}
