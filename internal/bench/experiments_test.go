package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"photon/internal/stats"
)

// positive fails unless v is a finite measurement above zero.
func positive(t *testing.T, what string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		t.Errorf("%s = %v, want finite and positive", what, v)
	}
}

// checkSeries requires at least one row and every y value measured.
func checkSeries(t *testing.T, s *stats.Series) {
	t.Helper()
	if s.NumRows() == 0 {
		t.Errorf("series %q has no rows", s.Title)
	}
	for i := 0; i < s.NumRows(); i++ {
		for _, line := range s.Lines {
			y, _ := s.Y(i, line)
			positive(t, fmt.Sprintf("series %q row %d %s", s.Title, i, line), y)
		}
	}
}

// checkTable requires at least one row carrying numbers, and every
// numeric cell right of the row-key column to be a measurement (label
// cells such as "eager" or "3/30" are skipped).
func checkTable(t *testing.T, tb *stats.Table) {
	t.Helper()
	numeric := 0
	for i := 0; i < tb.NumRows(); i++ {
		for _, col := range tb.Cols[1:] {
			cell, _ := tb.Cell(i, col)
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				continue
			}
			numeric++
			positive(t, fmt.Sprintf("table %q row %d %s", tb.Title, i, col), v)
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
			if len(rep.Series)+len(rep.Tables) == 0 {
				t.Fatalf("%s produced no output", id)
			}
			for _, s := range rep.Series {
				checkSeries(t, s)
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
