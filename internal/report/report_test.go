package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Recovery rates", "mechanism", "fault", "success")
	t.AddRow("NiLiHype", "failstop", "96.8%")
	t.AddRow("ReHype", "failstop", "96.8%")
	return t
}

func TestParseFormat(t *testing.T) {
	tests := []struct {
		in      string
		want    Format
		wantErr bool
	}{
		{"text", Text, false}, {"", Text, false},
		{"md", Markdown, false}, {"markdown", Markdown, false},
		{"CSV", CSV, false}, {"json", JSON, false}, {"JSON", JSON, false},
		{"xml", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseFormat(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("ParseFormat(%q) = %v, %v", tt.in, got, err)
		}
	}
	if Text.String() != "text" || Markdown.String() != "markdown" ||
		CSV.String() != "csv" || JSON.String() != "json" || Format(9).String() != "format(9)" {
		t.Fatal("format names wrong")
	}
}

func TestRenderText(t *testing.T) {
	out := sample().Render(Text)
	if !strings.Contains(out, "Recovery rates") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	// Columns aligned: "mechanism" padded to the widest cell.
	if !strings.HasPrefix(lines[1], "mechanism  fault") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "NiLiHype ") {
		t.Fatalf("row = %q", lines[2])
	}
}

func TestRenderMarkdown(t *testing.T) {
	out := sample().Render(Markdown)
	if !strings.Contains(out, "### Recovery rates") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "| mechanism | fault | success |") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "| --- | --- | --- |") {
		t.Fatalf("missing separator: %q", out)
	}
	// Pipes escaped.
	tb := NewTable("", "a")
	tb.AddRow("x|y")
	if !strings.Contains(tb.Render(Markdown), `x\|y`) {
		t.Fatal("pipe not escaped")
	}
}

func TestRenderCSV(t *testing.T) {
	out := sample().Render(CSV)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "mechanism,fault,success" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "NiLiHype,failstop,96.8%" {
		t.Fatalf("row = %q", lines[1])
	}
	// Quoting.
	tb := NewTable("", "a", "b")
	tb.AddRow(`with,comma`, `with"quote`)
	got := tb.Render(CSV)
	if !strings.Contains(got, `"with,comma","with""quote"`) {
		t.Fatalf("quoting wrong: %q", got)
	}
}

func TestRenderJSON(t *testing.T) {
	out := sample().Render(JSON)
	var doc struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("Render(JSON) is not valid JSON: %v\n%s", err, out)
	}
	if doc.Title != "Recovery rates" {
		t.Fatalf("title = %q", doc.Title)
	}
	if len(doc.Columns) != 3 || doc.Columns[0] != "mechanism" {
		t.Fatalf("columns = %v", doc.Columns)
	}
	if len(doc.Rows) != 2 || doc.Rows[1][2] != "96.8%" {
		t.Fatalf("rows = %v", doc.Rows)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("JSON output must end in a newline like the other renderers")
	}
	// Cells needing escaping survive the round trip.
	tb := NewTable("t", "a")
	tb.AddRow("quote\" and\nnewline")
	var doc2 struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(tb.Render(JSON)), &doc2); err != nil {
		t.Fatalf("escaped cell broke JSON: %v", err)
	}
	if doc2.Rows[0][0] != "quote\" and\nnewline" {
		t.Fatalf("cell round trip = %q", doc2.Rows[0][0])
	}
	// An empty table still renders an array, not null.
	empty := NewTable("e", "a")
	if s := empty.Render(JSON); strings.Contains(s, `"rows": null`) {
		t.Fatalf("empty table rows must be [], got:\n%s", s)
	}
}

func TestAddRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.AddRow("1")
	tb.AddRow("1", "2", "3", "4")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	out := tb.Render(CSV)
	if !strings.Contains(out, "1,,\n") {
		t.Fatalf("short row not padded: %q", out)
	}
	if strings.Contains(out, "4") {
		t.Fatalf("long row not truncated: %q", out)
	}
}

func TestHelpers(t *testing.T) {
	if Pct(0.968) != "96.8%" {
		t.Fatalf("Pct = %q", Pct(0.968))
	}
	if PctCI(0.5, 0.02) != "50.0% ± 2.0%" {
		t.Fatalf("PctCI = %q", PctCI(0.5, 0.02))
	}
	if Ms(0.022) != "22.0ms" {
		t.Fatalf("Ms = %q", Ms(0.022))
	}
}
