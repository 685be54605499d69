package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table used to print the same series
// the paper plots.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed under the table (paper-expectation reminders).
	Notes []string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint writes the table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// FprintCSV writes the table as CSV (header row first, notes as
// trailing '#' comment lines) for plotting tools.
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// FprintTables writes tables back-to-back with no separator: the byte
// stream of the daemon's text results endpoint, which the
// API-vs-library byte-identity contract compares against this function
// run on a direct Reproduce (recnsim prints the same tables with a blank
// line after each).
func FprintTables(w io.Writer, tables []*Table) {
	for _, t := range tables {
		t.Fprint(w)
	}
}

// RenderTables renders a list of tables separated by blank lines — the
// format the serial-vs-parallel golden tests compare byte-for-byte.
func RenderTables(tables []*Table) string {
	var sb strings.Builder
	for _, t := range tables {
		t.Fprint(&sb)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// stride picks a row step so a series prints in at most maxRows rows.
func stride(n, maxRows int) int {
	if maxRows <= 0 || n <= maxRows {
		return 1
	}
	return (n + maxRows - 1) / maxRows
}
