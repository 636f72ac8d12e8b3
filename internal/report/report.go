// Package report renders experiment results as text, Markdown, CSV or
// JSON tables, so the cmd/hyperrecover subcommands can feed plots and
// documents directly.
package report

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Format selects the output representation.
type Format int

// Formats.
const (
	Text Format = iota + 1
	Markdown
	CSV
	JSON
)

// ParseFormat maps a flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text", "":
		return Text, nil
	case "md", "markdown":
		return Markdown, nil
	case "csv":
		return CSV, nil
	case "json":
		return JSON, nil
	default:
		return 0, fmt.Errorf("report: unknown format %q", s)
	}
}

// String returns the format name.
func (f Format) String() string {
	switch f {
	case Text:
		return "text"
	case Markdown:
		return "markdown"
	case CSV:
		return "csv"
	case JSON:
		return "json"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// Table is a rectangular result table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable builds a table with the given columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded, long rows truncated to the
// column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render produces the table in the requested format.
func (t *Table) Render(f Format) string {
	switch f {
	case Markdown:
		return t.renderMarkdown()
	case CSV:
		return t.renderCSV()
	case JSON:
		return t.renderJSON()
	default:
		return t.renderText()
	}
}

func (t *Table) widths() []int {
	w := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		w[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > w[i] {
				w[i] = len(cell)
			}
		}
	}
	return w
}

func (t *Table) renderText() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

func (t *Table) renderMarkdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.rows {
		escaped := make([]string, len(row))
		for i, cell := range row {
			escaped[i] = strings.ReplaceAll(cell, "|", "\\|")
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(escaped, " | "))
	}
	return b.String()
}

func (t *Table) renderCSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		quoted := make([]string, len(cells))
		for i, cell := range cells {
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			quoted[i] = cell
		}
		b.WriteString(strings.Join(quoted, ","))
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// renderJSON emits the table as one self-describing JSON object. Rows are
// arrays (not objects) so duplicate column names cannot silently drop
// cells; the output ends in a newline like the other renderers.
func (t *Table) renderJSON() string {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	doc := struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{Title: t.Title, Columns: t.Columns, Rows: rows}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// A [][]string cannot fail to marshal; keep the renderer total.
		return fmt.Sprintf(`{"error":%q}`, err.Error()) + "\n"
	}
	return string(out) + "\n"
}

// Pct formats a proportion as a percentage cell.
func Pct(p float64) string { return fmt.Sprintf("%.1f%%", 100*p) }

// PctCI formats a proportion with its confidence half-width.
func PctCI(p, ci float64) string { return fmt.Sprintf("%.1f%% ± %.1f%%", 100*p, 100*ci) }

// Ms formats a duration in milliseconds given seconds.
func Ms(seconds float64) string { return fmt.Sprintf("%.1fms", seconds*1000) }

// Dur formats a time.Duration as a milliseconds cell.
func Dur(d time.Duration) string { return Ms(d.Seconds()) }
