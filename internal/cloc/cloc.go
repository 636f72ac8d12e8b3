// Package cloc is a small CLOC-equivalent line counter used to reproduce
// the methodology of the paper's implementation-complexity comparison
// (Table IV, §VII-D): lines of code are counted per file, blank lines and
// comments excluded, and bucketed into code that runs during normal
// operation versus code that runs only during recovery.
package cloc

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Counts is one file's line breakdown.
type Counts struct {
	Code    int
	Comment int
	Blank   int
}

// Add accumulates.
func (c *Counts) Add(o Counts) {
	c.Code += o.Code
	c.Comment += o.Comment
	c.Blank += o.Blank
}

// CountSource counts Go source lines the way CLOC does: blank lines,
// comment lines (// and /* */ blocks), and code lines. A line holding
// both code and a trailing comment counts as code.
func CountSource(src string) Counts {
	var c Counts
	inBlock := false
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		switch {
		case inBlock:
			c.Comment++
			if strings.Contains(t, "*/") {
				inBlock = false
			}
		case t == "":
			c.Blank++
		case strings.HasPrefix(t, "//"):
			c.Comment++
		case strings.HasPrefix(t, "/*"):
			c.Comment++
			if !strings.Contains(t[2:], "*/") {
				inBlock = true
			}
		default:
			c.Code++
		}
	}
	// Trailing newline produces one phantom blank.
	if strings.HasSuffix(src, "\n") && c.Blank > 0 {
		c.Blank--
	}
	return c
}

// Category buckets a source file per Table IV.
type Category int

// Categories (§VII-D): category 1 is code executing during normal
// operation to enable/enhance recovery; category 2 executes only during
// recovery.
const (
	NormalOperation Category = iota + 1
	RecoveryOnly
	Substrate // everything else (the platform being recovered)
)

// String returns the category label.
func (c Category) String() string {
	switch c {
	case NormalOperation:
		return "normal operation"
	case RecoveryOnly:
		return "recovery only"
	case Substrate:
		return "substrate"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Report is the per-category tally over a source tree.
type Report struct {
	PerCategory map[Category]Counts
	Files       int
}

// Categorize buckets a repository-relative path. The recovery engines
// (internal/core) are recovery-only; the logging/retry machinery
// (undo log, injection bookkeeping is test machinery) that runs during
// normal operation is category 1; everything else is substrate.
func Categorize(rel string) Category {
	rel = filepath.ToSlash(rel)
	switch {
	case strings.Contains(rel, "internal/core/"):
		return RecoveryOnly
	case strings.HasSuffix(rel, "hv/recovery.go"):
		return RecoveryOnly
	case strings.HasSuffix(rel, "hypercall/undo.go"):
		return NormalOperation
	default:
		return Substrate
	}
}

// ScanTree counts all non-test Go files under root, bucketing with
// categorize (Categorize by default).
func ScanTree(fsys fs.FS, categorize func(string) Category) (Report, error) {
	if categorize == nil {
		categorize = Categorize
	}
	rep := Report{PerCategory: make(map[Category]Counts)}
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := fs.ReadFile(fsys, path)
		if err != nil {
			return err
		}
		c := rep.PerCategory[categorize(path)]
		c.Add(CountSource(string(data)))
		rep.PerCategory[categorize(path)] = c
		rep.Files++
		return nil
	})
	return rep, err
}

// Format renders the report next to the paper's Table IV framing.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Implementation complexity (Table IV methodology), %d files:\n", r.Files)
	var cats []Category
	for c := range r.PerCategory {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, cat := range cats {
		c := r.PerCategory[cat]
		fmt.Fprintf(&b, "  %-18s %6d code  %6d comment  %6d blank\n",
			cat.String()+":", c.Code, c.Comment, c.Blank)
	}
	return b.String()
}
