// benchcmp compares two `go test -bench` output files statistically, in the
// spirit of benchstat but with no dependency outside the standard library
// (this repo builds offline). For every benchmark name and metric present in
// both files it reports the median before/after, the delta, and a two-sided
// Mann-Whitney U significance test at α=0.05; insignificant deltas are
// marked "~" so noise is not misread as change.
//
// Usage:
//
//	benchcmp old.txt new.txt
//
// It is the repository's one comparator of go-benchmark samples (`make
// bench-compare`); the statistics live in internal/bench. Compare only a
// recording with one made right after it on the same machine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lynx/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: benchcmp old.txt new.txt") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldS, oldOrder, err := bench.ParseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	newS, newOrder, err := bench.ParseFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 1
	}
	fmt.Fprint(stdout, bench.Compare(oldS, newS, oldOrder, newOrder).Table())
	return 0
}
