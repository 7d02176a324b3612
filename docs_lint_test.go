package rtsm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestGodocCoverage enforces the documentation contract on the packages
// the architecture guide describes: every package carries a package
// comment and every exported top-level identifier (type, function,
// method, var and const group) carries a doc comment. go vet has no such
// check, so this test is the enforcement mechanism — it runs in the
// normal CI test step and fails the build on an undocumented export.
func TestGodocCoverage(t *testing.T) {
	pkgs := []string{
		"internal/arch",
		"internal/core",
		"internal/manager",
		"internal/churn",
		"internal/stream",
		"internal/front",
		"internal/chaos",
	}
	for _, dir := range pkgs {
		t.Run(strings.ReplaceAll(dir, "/", "_"), func(t *testing.T) {
			for _, problem := range lintPackageDocs(t, dir) {
				t.Error(problem)
			}
		})
	}
}

// lintPackageDocs parses a package directory (tests excluded) and
// returns one message per documentation gap.
func lintPackageDocs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var problems []string
	for _, pkg := range pkgMap {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for name, f := range pkg.Files {
			rel := filepath.Base(name)
			for _, decl := range f.Decls {
				problems = append(problems, lintDecl(fset, dir, rel, decl)...)
			}
		}
	}
	return problems
}

// lintDecl reports documentation gaps of one top-level declaration.
func lintDecl(fset *token.FileSet, dir, file string, decl ast.Decl) []string {
	var problems []string
	missing := func(pos token.Pos, what string) {
		problems = append(problems, fmt.Sprintf("%s/%s:%d: %s lacks a doc comment",
			dir, file, fset.Position(pos).Line, what))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		kind := "exported function " + d.Name.Name
		if d.Recv != nil {
			// Only methods on exported receivers are part of the API.
			if recvTypeName(d.Recv) == "" {
				return nil
			}
			kind = fmt.Sprintf("exported method %s.%s", recvTypeName(d.Recv), d.Name.Name)
		}
		missing(d.Pos(), kind)
	case *ast.GenDecl:
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && !groupDoc && s.Doc == nil {
					missing(s.Pos(), "exported type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					// A doc comment on the group (const/var block) covers
					// its members; ungrouped exported values need their
					// own.
					if n.IsExported() && !groupDoc && s.Doc == nil {
						missing(n.Pos(), "exported value "+n.Name)
					}
				}
			}
		}
	}
	return problems
}

// recvTypeName returns the exported receiver type name of a method, or ""
// when the receiver type is unexported.
func recvTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok && id.IsExported() {
		return id.Name
	}
	return ""
}
