package bench

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// positive fails unless v is a finite measurement above zero.
func positive(t *testing.T, what string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		t.Errorf("%s = %v, want finite and positive", what, v)
	}
}

// checkTable requires at least one row carrying numbers, and every
// numeric cell right of the first (x axis or row key) column to be a
// measurement (label cells such as "eager" or "3/30" are skipped).
func checkTable(t *testing.T, tb *Table) {
	t.Helper()
	numeric := 0
	for i, row := range tb.rows {
		for j, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				continue
			}
			numeric++
			positive(t, fmt.Sprintf("table %q row %d %s", tb.Title, i, tb.Cols[j+1]), v)
		}
	}
	if numeric == 0 {
		t.Errorf("table %q has no numeric cells", tb.Title)
	}
}

func TestRunAllExperimentsQuick(t *testing.T) {
	for _, id := range Experiments() {
		t.Run(id, func(t *testing.T) {
			rep, err := Run(id, 0.05)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(rep.Tables) == 0 {
				t.Fatalf("%s produced no output", id)
			}
			for _, tb := range rep.Tables {
				checkTable(t, tb)
			}
			if !strings.HasPrefix(rep.Render(), "== "+id+": ") {
				t.Errorf("%s report is not headed by its registry ID and title:\n%s", id, rep.Render())
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRegistryListsEveryExperiment pins the one registry table: every
// row has a unique ID, a title and a routine, and Experiments() lists
// the rows in order. (cmd/photon-bench's test of the same name checks
// that `-list` and photon-info print exactly that list.)
func TestRegistryListsEveryExperiment(t *testing.T) {
	ids := Experiments()
	if len(ids) != len(registry) {
		t.Fatalf("Experiments() lists %d of %d registry rows", len(ids), len(registry))
	}
	seen := map[string]bool{}
	for i, e := range registry {
		if e.id == "" || e.title == "" || e.run == nil {
			t.Errorf("registry row %d (%q) is incomplete", i, e.id)
		}
		if seen[e.id] {
			t.Errorf("experiment %s registered twice", e.id)
		}
		seen[e.id] = true
		if ids[i] != e.id {
			t.Errorf("Experiments()[%d] = %s, registry row is %s", i, ids[i], e.id)
		}
	}
}

// TestTableRender checks the header, the column alignment and the cell
// formatting: integral floats print as integers, others with three
// decimals, anything else with %v.
func TestTableRender(t *testing.T) {
	tb := NewTable("Table 1", "size", "winner", "ratio")
	tb.Row(512, "eager", 1.25)
	tb.Row(65536, "rendezvous", 0.8)
	tb.Row(float64(8), "-", float64(2))
	want := "# Table 1\n" +
		"size   winner      ratio\n" +
		"512    eager       1.250\n" +
		"65536  rendezvous  0.800\n" +
		"8      -           2\n"
	if got := tb.Render(); got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

// TestTableRenderAxis renders a figure: the first column is the x
// axis, the rest one line each.
func TestTableRenderAxis(t *testing.T) {
	tb := NewTable("Fig 1: latency", "size", "photon", "baseline")
	tb.Row(8, 1.5, 2.5)
	tb.Row(16, 1.6, 2.6)
	out := tb.Render()
	for _, want := range []string{"# Fig 1: latency\n", "size  photon  baseline\n", "16    1.600   2.600\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if want := [][]string{{"8", "1.500", "2.500"}, {"16", "1.600", "2.600"}}; !reflect.DeepEqual(tb.rows, want) {
		t.Fatalf("rows = %v, want %v", tb.rows, want)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	NewTable("t", "x", "a", "b").Row(1, 2) // two cells for three columns
}

func TestSizes(t *testing.T) {
	if got, want := sizes(8, 64), []int{8, 16, 32, 64}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sizes = %v, want %v", got, want)
	}
	if s := sizes(64, 8); s != nil {
		t.Fatalf("inverted range should be empty, got %v", s)
	}
}
