package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// marker is the doc-comment directive that puts a function under the
// gate.
const marker = "//choreolint:allocfree"

// markedFunc is one //choreolint:allocfree declaration: the file and
// the inclusive line range of the whole declaration (doc comment
// excluded — an escape diagnostic can only point into the signature or
// body).
type markedFunc struct {
	Name     string
	File     string // absolute path
	From, To int    // inclusive line range
}

// Finding is one allocation inside a marked function, formatted like a
// choreolint diagnostic so the same CI problem matcher picks it up.
type Finding struct {
	File   string // module-relative
	Line   int
	Col    int
	Func   string
	Detail string // the compiler's message, e.g. "make([]int, n) escapes to heap"
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: allocation in %s function %s: %s [allocgate]",
		f.File, f.Line, f.Col, marker, f.Func, f.Detail)
}

// listedPackage is the slice of `go list -json` output the gate reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Module     *struct{ Dir string }
}

// Check gates the packages matched by patterns and returns the
// findings sorted by file, line, column.
func Check(patterns []string) ([]Finding, error) {
	pkgs, err := listPackages(patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		marked, err := markedFuncs(pkg)
		if err != nil {
			return nil, err
		}
		if len(marked) == 0 {
			continue
		}
		out, err := escapeOutput(pkg.ImportPath)
		if err != nil {
			return nil, err
		}
		found, err := matchEscapes(out, pkg, marked)
		if err != nil {
			return nil, err
		}
		findings = append(findings, found...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return findings, nil
}

func listPackages(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// markedFuncs parses one package's files and returns its
// //choreolint:allocfree declarations.
func markedFuncs(pkg listedPackage) ([]markedFunc, error) {
	var out []markedFunc
	fset := token.NewFileSet()
	for _, name := range pkg.GoFiles {
		path := filepath.Join(pkg.Dir, name)
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			hit := false
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == marker {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, markedFunc{
				Name: name,
				File: path,
				From: fset.Position(fd.Name.Pos()).Line,
				To:   fset.Position(fd.End()).Line,
			})
		}
	}
	return out, nil
}

func recvTypeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(x.X)
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return recvTypeName(x.X)
	case *ast.IndexListExpr:
		return recvTypeName(x.X)
	}
	return "?"
}

// escapeOutput compiles one package with escape-analysis diagnostics
// enabled and returns the compiler's stderr. The diagnostics replay
// from the build cache on repeat runs.
func escapeOutput(importPath string) (string, error) {
	cmd := exec.Command("go", "build", "-gcflags="+importPath+"=-m=1", importPath)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build -gcflags=-m=1 %s: %v\n%s", importPath, err, buf.String())
	}
	return buf.String(), nil
}

// positionRE matches one positioned compiler diagnostic.
var positionRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// isEscape reports whether a diagnostic message is an allocation.
func isEscape(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap")
}

// matchEscapes pairs the escape diagnostics in out, the compiler
// output for pkg, with the marked declarations they fall inside. It
// fails when the compiler printed positioned diagnostics but none of
// them resolved to a file of pkg: the gate would otherwise pass
// without having looked at anything.
func matchEscapes(out string, pkg listedPackage, marked []markedFunc) ([]Finding, error) {
	root := ""
	if pkg.Module != nil {
		root = pkg.Module.Dir
	}
	var findings []Finding
	positioned, resolved := 0, 0
	for _, line := range strings.Split(out, "\n") {
		m := positionRE.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		positioned++
		file, ok := resolve(m[1], pkg)
		if !ok {
			continue
		}
		resolved++
		if !isEscape(m[4]) {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		for _, mf := range marked {
			if mf.File == file && mf.From <= lineNo && lineNo <= mf.To {
				rel := file
				if root != "" {
					if r, err := filepath.Rel(root, file); err == nil {
						rel = r
					}
				}
				findings = append(findings, Finding{
					File: filepath.ToSlash(rel), Line: lineNo, Col: colNo,
					Func: mf.Name, Detail: m[4],
				})
				break
			}
		}
	}
	if positioned > 0 && resolved == 0 {
		return nil, fmt.Errorf("%s: none of %d compiler diagnostics resolved to a file of the package", pkg.ImportPath, positioned)
	}
	return findings, nil
}

// resolve maps a path printed by the compiler to the absolute path of
// the package file it names. The build cache replays -m output
// verbatim, with paths relative to whichever directory first compiled
// the package, so the printed path cannot be resolved against the
// current one. Instead it is matched to the package's own files by
// base name, and its trailing elements (after any leading "./" and
// "../") must agree with that file's path.
func resolve(printed string, pkg listedPackage) (string, bool) {
	base := filepath.Base(printed)
	if !slices.Contains(pkg.GoFiles, base) {
		return "", false
	}
	file := filepath.Join(pkg.Dir, base)
	if filepath.IsAbs(printed) {
		return file, filepath.Clean(printed) == file
	}
	suffix := filepath.ToSlash(filepath.Clean(printed))
	for strings.HasPrefix(suffix, "../") {
		suffix = suffix[len("../"):]
	}
	return file, strings.HasSuffix(filepath.ToSlash(file), "/"+suffix)
}
