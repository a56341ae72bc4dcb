package lynx_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneDeploymentAssembly: every deployment — lynx.Cluster, the
// experiments' testbeds, cluster.Rack — is assembled by one path, so each
// step of that assembly has exactly one non-test call site outside
// bench/perf (the benchmark's own module). A second site is the fork of
// per-constructor wiring growing back. Thin public wrappers are allowed
// on top of the one site.
func TestOneDeploymentAssembly(t *testing.T) {
	steps := []struct {
		pkg, name string // the callee; pkg "" matches a method of any receiver
		wrapper   string // the one enclosing function allowed besides the site
	}{
		{"snic", "NewTestbedWith", "snic.NewTestbed"},
		{"check", "New", "lynx.NewInvariantChecker"},
		{"profile", "New", ""},
		{"", "EnableInvariants", ""},
		{"workload", "RunFor", ""},
	}
	sites := make([][]string, len(steps))
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("bench", "perf") || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			encl := pkg + "." + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for i, s := range steps {
					if calls(call, pkg, s.pkg, s.name) && encl != s.wrapper {
						sites[i] = append(sites[i], fset.Position(call.Pos()).String()+" in "+encl)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		if len(sites[i]) != 1 {
			t.Errorf("%s: %d non-test call sites, want 1 (assemble deployments through cluster.Deploy and the snic.Testbed methods):\n  %s",
				strings.TrimPrefix(s.pkg+"."+s.name, "."), len(sites[i]), strings.Join(sites[i], "\n  "))
		}
	}
}

// calls reports whether call, in a file of package in, invokes name of
// package pkg (or a method name of any receiver when pkg is "").
func calls(call *ast.CallExpr, in, pkg, name string) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name != name {
			return false
		}
		x, ok := fun.X.(*ast.Ident)
		return pkg == "" || ok && x.Name == pkg
	case *ast.Ident:
		return fun.Name == name && in == pkg
	}
	return false
}
