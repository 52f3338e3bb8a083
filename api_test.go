package fpm

// The public surface is pinned: every exported top-level identifier of the
// package's non-test files, one "kind name" line each, sorted, must match
// testdata/api.golden. Adding or removing an entry point is then a
// deliberate edit of that file, and no second way to do one thing slips
// back in unnoticed.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestPublicAPIGolden(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var api []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					api = append(api, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							api = append(api, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								api = append(api, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(api)
	got := strings.Join(api, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "api.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("the exported API differs from testdata/api.golden; the new list is:\n%s", got)
	}
}
