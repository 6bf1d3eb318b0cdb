package bench

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
)

// Table is one titled grid of experiment output: a figure is a table
// whose first column is the x axis and whose other columns are the
// lines plotted against it.
type Table struct {
	Title string
	Cols  []string
	rows  [][]string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// Row appends one row, one cell per column. Floats print as integers
// when integral and with three decimals otherwise; anything else
// prints with %v.
func (t *Table) Row(cells ...any) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("bench: table %q has %d columns, row has %d cells", t.Title, len(t.Cols), len(cells)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			row[i] = formatNum(v)
		} else {
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render prints the table as aligned text under a "# title" line.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Cols, "\t"))
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return b.String()
}

func formatNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.3f", x)
}

// sizes returns the power-of-two sweep [lo, hi] used for message-size
// axes (lo and hi powers of two, lo <= hi).
func sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}
