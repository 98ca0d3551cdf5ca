package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestStructuresAreSingleThreaded holds the package to Aggregator's contract
// ("not safe for concurrent use") from the other side: no structure starts a
// goroutine, and only the ownership oracle — one oracle is shared by every
// partition's structure — imports sync or sync/atomic. Parallelism is the
// runtime's, one partition a goroutine; so a partition's free list
// (mapreduce/freelist.go) needs no lock either.
func TestStructuresAreSingleThreaded(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join("..", "mapreduce", "freelist.go"))
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if (path == "sync" || path == "sync/atomic") && name != "ownership.go" {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement", fset.Position(g.Pos()))
			}
			return true
		})
	}
}
