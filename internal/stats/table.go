package stats

import "strings"

// Table is a minimal fixed-column text table used by the benchmark harness
// to print the paper's tables with aligned columns.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond the header width are kept as-is.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with columns padded to their widest cell.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - len(c); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
