package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFixtureFindings pins the gate's findings on the seeded fixture
// to exact positions: the three canonical allocation shapes are each
// caught where they happen, and the clean function stays silent.
func TestFixtureFindings(t *testing.T) {
	findings, err := Check([]string{"../choreolint/testdata/src/allocfree"})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		line, col int
		fn        string
		detail    string
	}{
		{14, 2, "EscapingClosure", "moved to heap: x"},
		{15, 9, "EscapingClosure", "func literal escapes to heap"},
		{23, 13, "SliceGrowth", "make([]int, 0, 4) escapes to heap"},
		{34, 14, "InterfaceBoxing", "v escapes to heap"},
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, w := range want {
		f := findings[i]
		if f.Line != w.line || f.Col != w.col || f.Func != w.fn || f.Detail != w.detail {
			t.Errorf("finding %d: got %d:%d %s %q, want %d:%d %s %q",
				i, f.Line, f.Col, f.Func, f.Detail, w.line, w.col, w.fn, w.detail)
		}
		if !strings.HasSuffix(f.File, "fixture.go") {
			t.Errorf("finding %d: file %q, want fixture.go", i, f.File)
		}
		if s := f.String(); !strings.Contains(s, "[allocgate]") || !strings.Contains(s, marker) {
			t.Errorf("finding %d formats as %q; want the analyzer tag and marker", i, s)
		}
	}
}

// TestHotPathsClean is the production gate: the marked hot paths must
// be allocation-free, and the markers must actually exist (an edit
// that drops one would otherwise pass vacuously).
func TestHotPathsClean(t *testing.T) {
	pkgs := []string{"repro/internal/afsa", "repro/internal/store"}
	findings, err := Check(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("marked hot path allocates: %s", f)
	}

	listed, err := listPackages(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	marked := map[string]bool{}
	for _, pkg := range listed {
		mfs, err := markedFuncs(pkg)
		if err != nil {
			t.Fatal(err)
		}
		for _, mf := range mfs {
			marked[mf.Name] = true
		}
	}
	for _, want := range []string{"Stepper.StepSym", "hashIDs", "sortEdgesBySym", "pendingInst.advance"} {
		if !marked[want] {
			t.Errorf("expected %s marker on %s, found none", marker, want)
		}
	}
}

// TestMatchEscapes exercises the diagnostic parser on synthetic
// compiler output, including the lines it must ignore: whatever
// directory the printed paths are relative to, they resolve to the
// package's own files.
func TestMatchEscapes(t *testing.T) {
	dir := filepath.Join(string(filepath.Separator), "m", "p")
	pkg := listedPackage{Dir: dir, ImportPath: "example/p", GoFiles: []string{"x.go"}}
	marked := []markedFunc{{Name: "F", File: filepath.Join(dir, "x.go"), From: 10, To: 20}}
	out := strings.Join([]string{
		"# example/p",
		"x.go:12:5: make([]int, n) escapes to heap",
		"../p/x.go:15:3: moved to heap: buf",
		"p/x.go:16:3: moved to heap: buf2",
		filepath.Join(dir, "x.go") + ":17:3: moved to heap: buf3",
		"./x.go:25:1: make([]int, n) escapes to heap", // outside the range
		"x.go:11:2: n does not escape",                // not an allocation
		"y.go:12:5: make([]int, n) escapes to heap",   // not a package file
		"q/x.go:12:5: make([]int, n) escapes to heap", // same name, other directory
	}, "\n")
	got, err := matchEscapes(out, pkg, marked)
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, f := range got {
		lines = append(lines, f.Line)
		if f.File != "/m/p/x.go" {
			t.Errorf("finding at line %d: file %q, want /m/p/x.go", f.Line, f.File)
		}
	}
	if !slices.Equal(lines, []int{12, 15, 16, 17}) {
		t.Fatalf("got findings at lines %v, want [12 15 16 17]: %v", lines, got)
	}

	// Diagnostics were printed, but none names a file of the package:
	// the gate must fail rather than pass having checked nothing.
	if _, err := matchEscapes("q/x.go:12:5: can inline F\ny.go:3:1: x escapes to heap", pkg, marked); err == nil {
		t.Fatal("unresolvable diagnostics passed silently")
	}
}

// TestCacheOrderIndependent runs the gate on a copy of the fixture from
// a module root and from a subdirectory, in both orders, over the one
// shared build cache. Whichever directory compiles the package first
// fixes the relative paths the cache later replays; the findings must
// not depend on it.
func TestCacheOrderIndependent(t *testing.T) {
	src, err := os.ReadFile("../choreolint/testdata/src/allocfree/fixture.go")
	if err != nil {
		t.Fatal(err)
	}
	run := func(dir, pattern string) []Finding {
		t.Helper()
		t.Chdir(dir)
		findings, err := Check([]string{pattern})
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	for i, rootFirst := range []bool{true, false} {
		// A fresh module per order, with a unique trailing comment, so
		// the first run of each order is a cache miss.
		root := t.TempDir()
		sub := filepath.Join(root, "sub")
		for _, d := range []string{filepath.Join(root, "allocfree"), sub} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		nonce := fmt.Sprintf("\n// order %d, %d\n", i, time.Now().UnixNano())
		if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module allocfix\n\ngo 1.24\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "allocfree", "fixture.go"), append(src, nonce...), 0o644); err != nil {
			t.Fatal(err)
		}
		var fromRoot, fromSub []Finding
		if rootFirst {
			fromRoot = run(root, "./allocfree")
			fromSub = run(sub, "../allocfree")
		} else {
			fromSub = run(sub, "../allocfree")
			fromRoot = run(root, "./allocfree")
		}
		if len(fromRoot) != 4 {
			t.Fatalf("root first=%v: got %d findings from the module root, want 4: %v", rootFirst, len(fromRoot), fromRoot)
		}
		if !slices.Equal(fromRoot, fromSub) {
			t.Fatalf("root first=%v: findings differ\nfrom root: %v\nfrom subdirectory: %v", rootFirst, fromRoot, fromSub)
		}
	}
}
