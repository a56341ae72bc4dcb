package lynx_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the declarations of internal/ and package lynx
// that no program reaches but that stay in non-test code, one per line:
//
//	<name> test-hook <test file>   another package's test needs it
//	<name> api README.md           a lynx export README's snippets show
//
// <name> is the package path below the module ("internal/sim", or "lynx"
// for the facade), then ".Func", ".Type" or ".Type.Method".
const surfaceAllowlist = "testdata/surface_allowlist.txt"

// TestNoDeadSurface type-checks every non-test Go file of the repository,
// bench/perf's module included, and fails on each function, method, type,
// const or var of internal/ or package lynx that no program reaches and
// the allowlist does not name, and on each allowlist line that names a
// live or missing declaration. A declaration is reached from a main, an
// init or a package-level var initializer by any reference; a method is
// also reached when its type is and the code uses an interface the type
// implements (DESIGN.md §4.17).
func TestNoDeadSurface(t *testing.T) {
	s := loadSurface(t)
	allow, err := readAllowlist(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	w := s.newWalker()
	live := maps.Clone(w.live)
	// A listed declaration keeps what it uses.
	for name := range allow {
		if obj := s.byName[name]; obj != nil {
			w.mark(obj)
		}
	}
	w.run()

	reached, kept, dead := 0, 0, 0
	for _, d := range s.decls {
		_, listed := allow[d.name]
		switch {
		case live[d.obj]:
			reached++
		case listed:
		case w.live[d.obj]:
			kept++
		default:
			dead++
			t.Errorf("%s: %s is reached from no main, init or package initializer: delete it, move it into a _test.go file, or list it in %s",
				s.fset.Position(d.obj.Pos()), d.name, surfaceAllowlist)
		}
	}
	kinds := map[string]int{}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return allow[names[i]].line < allow[names[j]].line })
	for _, name := range names {
		e := allow[name]
		kinds[e.kind]++
		obj := s.byName[name]
		switch {
		case obj == nil:
			t.Errorf("%s:%d: %s names no declaration of internal/ or package lynx", surfaceAllowlist, e.line, name)
		case live[obj]:
			t.Errorf("%s:%d: %s is live: remove the line", surfaceAllowlist, e.line, name)
		}
		if e.kind != "test-hook" && e.kind != "api" {
			t.Errorf("%s:%d: kind %q, want test-hook or api", surfaceAllowlist, e.line, e.kind)
			continue
		}
		body, err := os.ReadFile(e.file)
		if err != nil {
			t.Errorf("%s:%d: %v", surfaceAllowlist, e.line, err)
		} else if use := usage(name); !strings.Contains(string(body), use) {
			t.Errorf("%s:%d: %s does not use %s (no %q)", surfaceAllowlist, e.line, e.file, name, use)
		}
	}
	t.Logf("internal/ and lynx: %d declarations reached from a program; dead and unlisted: %d; allowlisted: %d (%d test-hook, %d api), keeping %d more; moved into tests: %d (export_test.go declarations and test-file methods of non-test types)",
		reached, dead, len(allow), kinds["test-hook"], kinds["api"], kept, s.testOnly)
}

// usage is the text a file that uses an allowlisted name contains: a call
// ".Method(" for a method, "pkg.Name" for a package-level declaration.
func usage(name string) string {
	parts := strings.Split(name[strings.LastIndex(name, "/")+1:], ".")
	if len(parts) == 3 {
		return "." + parts[2] + "("
	}
	return parts[0] + "." + parts[1]
}

// surface is the type-checked non-test code of the repository.
type surface struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*surfacePkg // by import path
	order []*surfacePkg          // in load order
	decls []surfaceDecl          // internal/ and lynx, in source order
	// byName maps each decl's name to its object.
	byName map[string]types.Object
	// testOnly counts the declarations of internal/ and lynx that live in
	// their packages' _test.go files (see countTestOnly).
	testOnly int
}

type surfacePkg struct {
	path, dir string
	files     []*ast.File
	types     *types.Package
	info      *types.Info
	checking  bool
}

type surfaceDecl struct {
	name string
	obj  types.Object
}

// modulePath is the repository's import path; bench/perf's module lies
// below it.
const modulePath = "lynx"

func loadSurface(t *testing.T) *surface {
	s := &surface{
		fset:   token.NewFileSet(),
		pkgs:   map[string]*surfacePkg{},
		byName: map[string]types.Object{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	testFiles := map[string][]string{} // dir → _test.go files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		dir = filepath.Clean(dir)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles[dir] = append(testFiles[dir], path)
			return nil
		}
		f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(filepath.Join(modulePath, dir))
		p := s.pkgs[ip]
		if p == nil {
			p = &surfacePkg{path: ip, dir: dir}
			s.pkgs[ip] = p
			s.order = append(s.order, p)
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.order {
		if _, err := s.check(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range s.order {
		if !reported(p.path) {
			continue
		}
		s.collect(p)
		s.countTestOnly(t, p, testFiles[p.dir])
	}
	return s
}

// reported says whether a package's dead declarations are the gate's
// business: the facade and internal/, not binaries or bench/perf.
func reported(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/internal/")
}

// Import resolves the repository's packages to their own type-check and
// the standard library to the source importer, so the test runs offline.
func (s *surface) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return s.check(p)
	}
	return s.std.Import(path)
}

func (s *surface) check(p *surfacePkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(p.path, s.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
	}
	p.types = pkg
	return pkg, nil
}

// collect lists p's package-level declarations and methods.
func (s *surface) collect(p *surfacePkg) {
	prefix := strings.TrimPrefix(strings.TrimPrefix(p.path, modulePath), "/")
	if prefix == "" {
		prefix = modulePath
	}
	add := func(id *ast.Ident, recv string) {
		obj := p.info.Defs[id]
		if obj == nil || id.Name == "_" || id.Name == "init" && recv == "" {
			return
		}
		name := prefix + "." + id.Name
		if recv != "" {
			name = prefix + "." + recv + "." + id.Name
		}
		s.decls = append(s.decls, surfaceDecl{name, obj})
		s.byName[name] = obj
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, recvName(d))
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name, "")
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id, "")
						}
					}
				}
			}
		}
	}
}

// countTestOnly counts p's surface that lives in its in-package _test.go
// files: every declaration of export_test.go, and each method another test
// file declares on a type of p's non-test code.
func (s *surface) countTestOnly(t *testing.T, p *surfacePkg, files []string) {
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name != p.types.Name() {
			continue
		}
		export := filepath.Base(path) == "export_test.go"
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if _, ok := p.types.Scope().Lookup(recvName(d)).(*types.TypeName); ok || export {
					s.testOnly++
				}
			case *ast.GenDecl:
				if export && d.Tok != token.IMPORT {
					s.testOnly += len(d.Specs)
				}
			}
		}
	}
}

// recvName is the base type name of a method's receiver, or "".
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	x := fd.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// walker computes reachability over the repository's declarations. Objects
// are generic origins, so an instantiation reaches its declaration.
type walker struct {
	s      *surface
	syntax map[types.Object][]ast.Node // each declaration's syntax
	info   map[ast.Node]*types.Info
	live   map[types.Object]bool
	queue  []types.Object
	named  []*types.TypeName  // reached defined non-interface types
	ifaces []*types.Interface // interfaces the reached code uses
	used   map[*types.Interface]bool
	done   map[[2]int]bool // (named, iface) pairs compared
}

// newWalker indexes every declaration and walks from the roots: each main,
// each init and each package-level var initializer.
func (s *surface) newWalker() *walker {
	w := &walker{
		s:      s,
		syntax: map[types.Object][]ast.Node{},
		info:   map[ast.Node]*types.Info{},
		live:   map[types.Object]bool{},
		used:   map[*types.Interface]bool{},
		done:   map[[2]int]bool{},
	}
	w.use(implicitInterfaces()...)
	var roots []ast.Node
	for _, p := range s.order {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					w.info[d] = p.info
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, d)
						continue
					}
					obj := p.info.Defs[d.Name]
					w.syntax[obj] = append(w.syntax[obj], d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						w.info[spec] = p.info
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[sp.Name]
							w.syntax[obj] = append(w.syntax[obj], sp)
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								if obj := p.info.Defs[id]; obj != nil {
									w.syntax[obj] = append(w.syntax[obj], sp)
								}
							}
							if d.Tok == token.VAR && len(sp.Values) > 0 {
								roots = append(roots, sp)
							}
						}
					}
				}
			}
		}
	}
	for _, r := range roots {
		w.visit(r)
	}
	w.run()
	return w
}

// mark reaches obj.
func (w *walker) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if obj == nil || w.live[obj] {
		return
	}
	w.live[obj] = true
	w.queue = append(w.queue, obj)
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			w.use(it)
		} else if _, ok := tn.Type().(*types.Named); ok {
			w.named = append(w.named, tn)
		}
	}
}

// use records interfaces the reached code uses; ones with no methods
// cannot reach any.
func (w *walker) use(its ...*types.Interface) {
	for _, it := range its {
		if it.NumMethods() > 0 && !w.used[it] {
			w.used[it] = true
			w.ifaces = append(w.ifaces, it)
		}
	}
}

// visit reaches everything a declaration's syntax refers to, and records
// the interfaces it uses: interface literals, and the interface parameters
// of the library functions it calls (heap.Push uses heap.Interface).
func (w *walker) visit(n ast.Node) {
	info := w.info[n]
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				break
			}
			w.mark(obj)
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && w.s.pkgs[fn.Pkg().Path()] == nil {
				w.use(paramInterfaces(fn.Type().(*types.Signature))...)
			}
		case *ast.InterfaceType:
			if it, ok := info.TypeOf(x).(*types.Interface); ok {
				w.use(it)
			}
		}
		return true
	})
}

// run walks to a fixed point: the syntax of every reached declaration, and
// the methods each reached type contributes to each used interface.
func (w *walker) run() {
	for {
		for len(w.queue) > 0 {
			obj := w.queue[0]
			w.queue = w.queue[1:]
			for _, n := range w.syntax[obj] {
				w.visit(n)
			}
		}
		for i := 0; i < len(w.named); i++ {
			ms := types.NewMethodSet(types.NewPointer(w.named[i].Type()))
			if ms.Len() == 0 {
				continue
			}
			for j := 0; j < len(w.ifaces); j++ {
				if w.done[[2]int{i, j}] {
					continue
				}
				w.done[[2]int{i, j}] = true
				for _, m := range implements(ms, w.ifaces[j]) {
					w.mark(m)
				}
			}
		}
		if len(w.queue) == 0 {
			return
		}
	}
}

// implements returns the methods of ms that satisfy it, or nil when ms
// lacks one of its methods. Methods match by name: a generic type or
// constraint is compared without instantiating it.
func implements(ms *types.MethodSet, it *types.Interface) []types.Object {
	var out []types.Object
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil {
			return nil
		}
		out = append(out, sel.Obj())
	}
	return out
}

// paramInterfaces returns the interface types among a library function's
// parameters: heap.Push uses heap.Interface, sort.Sort sort.Interface.
func paramInterfaces(sig *types.Signature) []*types.Interface {
	var out []*types.Interface
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if sl, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
			t = sl.Elem()
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			out = append(out, it)
		}
	}
	return out
}

// implicitInterfaces are the interfaces the standard library finds by type
// assertion on values it is handed as any: fmt's error, Stringer, Formatter
// and GoStringer, and encoding/json's Marshaler and TextMarshaler.
func implicitInterfaces() []*types.Interface {
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	var out []*types.Interface
	for _, name := range []string{"Error", "String", "Format", "GoString", "MarshalJSON", "MarshalText"} {
		// Only the name matters to implements.
		m := types.NewFunc(token.NoPos, nil, name, str)
		out = append(out, types.NewInterfaceType([]*types.Func{m}, nil).Complete())
	}
	return out
}

type allowEntry struct {
	kind, file string
	line       int
}

func readAllowlist(path string) (map[string]allowEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]allowEntry{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want <name> <kind> [<file>], got %q", path, n, line)
		}
		fields = append(fields, "")
		if _, dup := out[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[0])
		}
		out[fields[0]] = allowEntry{fields[1], fields[2], n}
	}
	return out, sc.Err()
}
