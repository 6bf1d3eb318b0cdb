package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"photon/internal/bench"
)

// TestRegistryListsEveryExperiment checks that -list prints exactly
// the registry's IDs, and that they are the IDs photon-info prints
// (pinned to its real output by that command's golden test).
func TestRegistryListsEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	list(&out)
	got := strings.Fields(out.String())
	if want := bench.Experiments(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-list printed %v, registry has %v", got, want)
	}
	golden, err := os.ReadFile("../photon-info/testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if want := "[" + strings.Join(got, " ") + "]"; !strings.Contains(string(golden), want) {
		t.Errorf("photon-info's golden output does not list %s", want)
	}
}
