package lynx_test

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// trafficAllowlist names the library functions that no program of the
// traffic run executes, one per line:
//
//	<name> safety                  an error, invariant-failure, kill or unwind path
//	<name> test-hook <test file>   another package's test needs it
//
// <name> is spelled as in surfaceAllowlist. String and Error methods need
// no line, and a test-hook line names an entry of surfaceAllowlist.
const trafficAllowlist = "testdata/traffic_allowlist.txt"

// trafficProfile is the traffic run's merged coverage profile. It exists
// only while `make traffic` runs this test.
const trafficProfile = ".bench_build/traffic/profile.txt"

// TestTraffic checks the traffic run's merged coverage profile, which
// `make traffic` (scripts/traffic.sh, DESIGN.md §4.18) writes: it prints
// each library package's statement coverage and every library function
// that no program executes, and fails on such a function the allowlist does
// not name and on an allowlist line that names an executed or missing
// function. Without the profile it skips.
func TestTraffic(t *testing.T) {
	blocks, err := readProfile(trafficProfile)
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no traffic profile: make traffic runs this test")
	}
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(trafficAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	surface, err := readAllowlist(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	funcs := libraryFuncs(t)

	type tally struct{ stmts, missed int }
	pkgs := map[string]*tally{}
	var total tally
	idle := map[string]trafficFunc{}
	for _, f := range funcs {
		pkg := pkgs[f.pkg]
		if pkg == nil {
			pkg = &tally{}
			pkgs[f.pkg] = pkg
		}
		ran := false
		for _, b := range blocks[f.file] {
			if f.contains(b) {
				pkg.stmts += b.stmts
				total.stmts += b.stmts
				if b.count == 0 {
					pkg.missed += b.stmts
					total.missed += b.stmts
				}
				ran = ran || b.count > 0
			}
		}
		if !ran {
			idle[f.name] = f
		}
	}
	if total.stmts == 0 {
		t.Fatalf("%s covers no library statement", trafficProfile)
	}
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := pkgs[name]
		t.Logf("%-26s %5.1f%% of %4d statements", name, 100*float64(p.stmts-p.missed)/float64(max(p.stmts, 1)), p.stmts)
	}

	exempt := 0
	names = names[:0]
	for name := range idle {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := idle[name]
		e, listed := allow[name]
		switch {
		case f.exempt():
			exempt++
		case !listed:
			t.Errorf("%s: %s runs in no program: delete it, make a program run it, or list it in %s",
				f.pos, name, trafficAllowlist)
		default:
			t.Logf("not executed: %s (%s %s)", name, e.kind, e.file)
		}
	}
	known := map[string]bool{}
	for _, f := range funcs {
		known[f.name] = true
	}
	lines := make([]string, 0, len(allow))
	for name := range allow {
		lines = append(lines, name)
	}
	sort.Slice(lines, func(i, j int) bool { return allow[lines[i]].line < allow[lines[j]].line })
	for _, name := range lines {
		e := allow[name]
		_, notRun := idle[name]
		switch {
		case !known[name]:
			t.Errorf("%s:%d: %s names no library function", trafficAllowlist, e.line, name)
		case !notRun:
			t.Errorf("%s:%d: %s runs in a program: remove the line", trafficAllowlist, e.line, name)
		case idle[name].exempt():
			t.Errorf("%s:%d: %s is a String or Error method, which needs no line", trafficAllowlist, e.line, name)
		}
		switch e.kind {
		case "safety":
		case "test-hook":
			if _, ok := surface[name]; !ok {
				t.Errorf("%s:%d: %s is no entry of %s; a function only tests call is a dead declaration there first",
					trafficAllowlist, e.line, name, surfaceAllowlist)
			}
			body, err := os.ReadFile(e.file)
			if err != nil {
				t.Errorf("%s:%d: %v", trafficAllowlist, e.line, err)
			} else if use := usage(name); !strings.Contains(string(body), use) {
				t.Errorf("%s:%d: %s does not use %s (no %q)", trafficAllowlist, e.line, e.file, name, use)
			}
		default:
			t.Errorf("%s:%d: kind %q, want safety or test-hook", trafficAllowlist, e.line, e.kind)
		}
	}
	t.Logf("library (internal/ and lynx): %d of %d statements not executed (%.1f%%); %d of %d functions not executed, %d of them String or Error methods",
		total.missed, total.stmts, 100*float64(total.missed)/float64(total.stmts), len(idle), len(funcs), exempt)
}

// coverBlock is one line of a text coverage profile.
type coverBlock struct {
	startLine, startCol, endLine, endCol int
	stmts, count                         int
}

// readProfile reads a `go tool covdata textfmt` profile, keyed by the
// file's path below the repository root.
func readProfile(path string) (map[string][]coverBlock, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	blocks := map[string][]coverBlock{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			continue
		}
		// lynx/internal/sim/sim.go:10.2,12.3 2 1
		file, rest, ok := strings.Cut(line, ":")
		var b coverBlock
		if _, err := fmt.Sscanf(rest, "%d.%d,%d.%d %d %d", &b.startLine, &b.startCol, &b.endLine, &b.endCol, &b.stmts, &b.count); !ok || err != nil {
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
		file = strings.TrimPrefix(strings.TrimPrefix(file, modulePath), "/")
		blocks[file] = append(blocks[file], b)
	}
	return blocks, sc.Err()
}

// trafficFunc is one function or method of the library.
type trafficFunc struct {
	name, pkg, file, pos string
	recv                 bool
	body                 [2]token.Position
}

// contains says whether a profile block lies in f's body.
func (f trafficFunc) contains(b coverBlock) bool {
	after := func(line, col int, p token.Position) bool {
		return line > p.Line || line == p.Line && col >= p.Column
	}
	return after(b.startLine, b.startCol, f.body[0]) && !after(b.startLine, b.startCol, f.body[1])
}

// exempt says whether f is a String or Error method.
func (f trafficFunc) exempt() bool {
	return f.recv && (strings.HasSuffix(f.name, ".String") || strings.HasSuffix(f.name, ".Error"))
}

// libraryFuncs parses the non-test files of package lynx and internal/.
func libraryFuncs(t *testing.T) []trafficFunc {
	fset := token.NewFileSet()
	var funcs []trafficFunc
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
		ip := filepath.ToSlash(filepath.Join(modulePath, dir))
		if !reported(ip) || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(strings.TrimPrefix(ip, modulePath), "/")
		if pkg == "" {
			pkg = modulePath
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := pkg + "." + fd.Name.Name
			if r := recvName(fd); r != "" {
				name = pkg + "." + r + "." + fd.Name.Name
			}
			if fd.Name.Name == "init" && fd.Recv == nil {
				name += "@" + strconv.Itoa(fset.Position(fd.Pos()).Line)
			}
			funcs = append(funcs, trafficFunc{
				name: name, pkg: pkg, file: filepath.ToSlash(path),
				pos:  fset.Position(fd.Pos()).String(),
				recv: fd.Recv != nil,
				body: [2]token.Position{fset.Position(fd.Body.Lbrace), fset.Position(fd.Body.Rbrace)},
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
