package cloc

import (
	"strings"
	"testing"
	"testing/fstest"
)

func TestCountSource(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want Counts
	}{
		{"empty", "", Counts{Blank: 1}},
		{"code only", "package x\nfunc f() {}\n", Counts{Code: 2}},
		{"line comments", "// a\n// b\ncode()\n", Counts{Comment: 2, Code: 1}},
		{"blank lines", "a()\n\n\nb()\n", Counts{Code: 2, Blank: 2}},
		{"block comment", "/*\nhello\n*/\ncode()\n", Counts{Comment: 3, Code: 1}},
		{"one-line block", "/* x */\ncode()\n", Counts{Comment: 1, Code: 1}},
		{"trailing comment is code", "x := 1 // note\n", Counts{Code: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := CountSource(tt.src)
			if got != tt.want {
				t.Fatalf("CountSource = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestCountsTotalAndAdd(t *testing.T) {
	a := Counts{Code: 1, Comment: 2, Blank: 3}
	b := Counts{Code: 10, Comment: 20, Blank: 30}
	a.Add(b)
	if a != (Counts{Code: 11, Comment: 22, Blank: 33}) {
		t.Fatalf("Add = %+v", a)
	}
}

func TestCategorize(t *testing.T) {
	tests := []struct {
		path string
		want Category
	}{
		{"internal/core/recover.go", RecoveryOnly},
		{"internal/core/latency.go", RecoveryOnly},
		{"internal/hv/recovery.go", RecoveryOnly},
		{"internal/hypercall/undo.go", NormalOperation},
		{"internal/hv/exec.go", Substrate},
		{"internal/guest/appvm.go", Substrate},
	}
	for _, tt := range tests {
		if got := Categorize(tt.path); got != tt.want {
			t.Errorf("Categorize(%q) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

func TestScanTree(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/core/a.go":      {Data: []byte("package core\nvar x = 1\n")},
		"internal/hv/exec.go":     {Data: []byte("package hv\n// c\nvar y = 1\n")},
		"internal/hv/a_test.go":   {Data: []byte("package hv\nfunc TestX() {}\n")},
		"internal/other/notes.md": {Data: []byte("# not go\n")},
	}
	rep, err := ScanTree(fsys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Files != 2 {
		t.Fatalf("Files = %d, want 2 (tests and non-Go skipped)", rep.Files)
	}
	if got := rep.PerCategory[RecoveryOnly].Code; got != 2 {
		t.Fatalf("recovery code = %d, want 2", got)
	}
	if got := rep.PerCategory[Substrate].Comment; got != 1 {
		t.Fatalf("substrate comments = %d, want 1", got)
	}
	out := rep.Format()
	if !strings.Contains(out, "recovery only") || !strings.Contains(out, "substrate") {
		t.Fatalf("Format() = %q", out)
	}
}

func TestCategoryString(t *testing.T) {
	if NormalOperation.String() != "normal operation" || RecoveryOnly.String() != "recovery only" ||
		Substrate.String() != "substrate" || Category(9).String() != "category(9)" {
		t.Fatal("category names wrong")
	}
}
