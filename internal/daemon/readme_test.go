package daemon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmePathsAreRoutes: every daemon path README.md sends a reader
// to (localhost:<port>/…, query dropped) is one of internal/api's Path*
// routes, read from api.go itself. Two quick starts curled /metrics and
// /plan for releases after the flat aliases were retired: both 404.
func TestReadmePathsAreRoutes(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "../api/api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]bool{}
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && strings.HasPrefix(name.Name, "Path") {
					path, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					routes[path] = true
				}
			}
		}
	}
	if !routes["/v1/ingest"] || !routes["/v1/plan"] {
		t.Fatalf("read %d routes from api.go: %v", len(routes), routes)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, m := range regexp.MustCompile(`localhost:\d+(/[^\s'"?)\x60]*)`).FindAllStringSubmatch(string(readme), -1) {
		found++
		if !routes[m[1]] {
			t.Errorf("README.md: %s is not a route of internal/api", m[0])
		}
	}
	if found == 0 {
		t.Fatal("README.md names no localhost path; the test reads nothing")
	}
}
