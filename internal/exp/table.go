package exp

import (
	"fmt"
	"strconv"
	"strings"
)

// Column describes one column of a matrix result: a CSV header key, the
// fixed-width printf verbs of the text table, and optional per-medium
// formatters for cells whose text and CSV renderings differ.
type Column struct {
	// Key is the CSV header; Head the text-table header label.
	Key, Head string
	// HeadFmt/CellFmt are the printf verbs of the header and data cells
	// ("%9s", "%8.1fs").
	HeadFmt, CellFmt string
	// Text, if set, pre-renders the cell value to the string CellFmt
	// formats (for compound cells like a per-job runtime list).
	Text func(v any) string
	// CSV, if set, overrides the default CSV rendering (floats with three
	// decimals, ints, strings and bools verbatim).
	CSV func(v any) string
}

// Table is the shared renderer behind every flat matrix result: one title
// line, one aligned header, one line per row — and the same rows again as a
// CSV table.
type Table struct {
	// Title is the first line of String(), without the trailing newline.
	Title string
	// Name keys the CSV table.
	Name    string
	Columns []Column
	Rows    [][]any
}

func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n ")
	for _, c := range t.Columns {
		b.WriteString(" ")
		fmt.Fprintf(&b, c.HeadFmt, c.Head)
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(" ")
		for i, c := range t.Columns {
			b.WriteString(" ")
			v := row[i]
			if c.Text != nil {
				fmt.Fprintf(&b, c.CellFmt, c.Text(v))
			} else {
				fmt.Fprintf(&b, c.CellFmt, v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSVTables implements Tabular.
func (t *Table) CSVTables() map[string][][]string {
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Key
	}
	rows := [][]string{header}
	for _, row := range t.Rows {
		out := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			if c.CSV != nil {
				out[i] = c.CSV(row[i])
			} else {
				out[i] = csvCell(row[i])
			}
		}
		rows = append(rows, out)
	}
	return map[string][][]string{t.Name: rows}
}

// csvCell renders one cell value for CSV export.
func csvCell(v any) string {
	switch x := v.(type) {
	case float64:
		return ftoa(x)
	case int:
		return itoa(x)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(x)
	}
}
