package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// layers are the repository's modules a traced run charges host cost to,
// plus the harness itself (bench), the garbage collector's workers (gc), the
// rest of the Go runtime (runtime) and every other package (other).
var layers = []string{
	"sim", "netstack", "rdma", "mqueue", "memdev", "fabric", "accel", "core", "cluster",
	"lenet", "kvstore", "bench", "gc", "runtime", "other",
}

// attribution is host cost per layer over a traced window.
type attribution struct {
	cpu     map[string]int64 // CPU nanoseconds
	alloc   map[string]int64 // bytes allocated
	simSelf int64            // CPU nanoseconds whose innermost lynx frame is in internal/sim
}

// profiler records the CPU profile and the allocation profiles at both ends
// of a traced window.
type profiler struct {
	dir string
	cpu *os.File
}

func (p *profiler) path(name string) string { return filepath.Join(p.dir, name) }

func (p *profiler) begin() error {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	if err := writeAllocs(p.path("allocs0.pprof")); err != nil {
		return err
	}
	f, err := os.Create(p.path("cpu.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpu = f
	return nil
}

func (p *profiler) end() error {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return err
	}
	// The allocation profile is published at the end of a GC cycle.
	runtime.GC()
	return writeAllocs(p.path("allocs1.pprof"))
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attribute charges the window's CPU samples and allocated bytes to layers.
func (p *profiler) attribute() (*attribution, error) {
	a := &attribution{cpu: map[string]int64{}, alloc: map[string]int64{}}
	cpu, err := traces("ns", p.path("cpu.pprof"))
	if err != nil {
		return nil, err
	}
	for _, s := range cpu {
		layer, self := attribute(s.frames)
		a.cpu[layer] += s.value
		if self {
			a.simSelf += s.value
		}
	}
	alloc, err := traces("B", "-sample_index=alloc_space", "-base", p.path("allocs0.pprof"), p.path("allocs1.pprof"))
	if err != nil {
		return nil, err
	}
	for _, s := range alloc {
		layer, _ := attribute(s.frames)
		a.alloc[layer] += s.value
	}
	return a, nil
}

// traces runs `go tool pprof -traces` with values in unit and parses the
// output.
func traces(unit string, args ...string) ([]sample, error) {
	args = append([]string{"tool", "pprof", "-traces", "-symbolize=none", "-unit=" + unit}, args...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w: %s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return parseTraces(string(out), unit)
}

// sample is one distinct stack of a profile with its summed value.
type sample struct {
	value  int64
	frames []string // leaf first
}

// parseTraces reads `go tool pprof -traces -unit=<unit>` output: a header
// naming the profile's type, then one block per distinct stack, each opened
// by a separator line. Label lines ("bytes: 16kB") may open a block; the
// next line holds the stack's value, an integer followed by unit (a bare 0
// when a -base profile cancels it), then the leaf frame; every later line
// holds one caller frame. Inlined frames carry an " (inline)" suffix. A
// window too short for the profiler to sample has a header and no blocks.
func parseTraces(out, unit string) ([]sample, error) {
	var samples []sample
	var cur *sample
	header, inBlock := false, false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlock, cur = true, nil
			continue
		}
		text := strings.TrimSpace(line)
		if !inBlock {
			header = header || strings.HasPrefix(text, "Type: ")
			continue
		}
		if text == "" {
			continue
		}
		if cur == nil {
			head, frame, _ := strings.Cut(text, " ")
			if strings.HasSuffix(head, ":") {
				continue // a label line
			}
			num := strings.TrimSuffix(head, unit)
			v, err := strconv.ParseInt(num, 10, 64)
			if err != nil || (num == head && v != 0) {
				return nil, fmt.Errorf("pprof traces: bad value line %q", line)
			}
			samples = append(samples, sample{value: v})
			cur = &samples[len(samples)-1]
			text = strings.TrimSpace(frame)
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(text, " (inline)"))
	}
	if !header {
		return nil, errors.New("pprof traces: no profile header")
	}
	return samples, nil
}

// simLoop holds the simulator frames that own the samples beneath them: the
// event loop, and the entry of every coroutine process's goroutine.
var simLoop = map[string]bool{
	"lynx/internal/sim.(*Sim).runEvent":     true,
	"lynx/internal/sim.(*Sim).Run":          true,
	"lynx/internal/sim.(*Sim).RunUntil":     true,
	"lynx/internal/sim.(*Sim).RunUntilCond": true,
	"lynx/internal/sim.(*Sim).Spawn.func1":  true,
}

// gcWorkers are the roots of the runtime's background collector goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

const lynxPrefix = "lynx/internal/"

// attribute names the layer a stack is charged to. Walking from the leaf,
// the first frame of a lynx package other than internal/sim decides, and a
// harness frame (package main) means bench. Reaching the event loop or a
// process's goroutine entry first charges sim, so sim is the event loop's
// own cost and a process's coroutine hand-off is charged to the layer whose
// process blocked. A stack with no lynx frame is gc under a collector
// goroutine and runtime otherwise. self reports whether the innermost lynx
// frame is in internal/sim.
func attribute(frames []string) (layer string, self bool) {
	lynx := false
	for _, f := range frames {
		isMain := strings.HasPrefix(f, "main.")
		if !isMain && !strings.HasPrefix(f, lynxPrefix) {
			continue
		}
		if !lynx {
			lynx, self = true, strings.HasPrefix(f, lynxPrefix+"sim.")
		}
		if simLoop[f] {
			return "sim", self
		}
		if isMain {
			return "bench", self
		}
		if pkg := packageOf(f); pkg != "sim" {
			return layerOf(pkg), self
		}
	}
	if lynx {
		return "sim", self
	}
	for _, f := range frames {
		if gcWorkers[f] {
			return "gc", false
		}
	}
	return "runtime", false
}

// packageOf returns the package path below lynx/internal/ of a function
// name. The path ends at the first dot: type parameters may hold slashes.
func packageOf(fn string) string {
	rest := strings.TrimPrefix(fn, lynxPrefix)
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		return rest[:i]
	}
	return rest
}

func layerOf(pkg string) string {
	switch pkg {
	case "apps/lenet":
		return "lenet"
	case "apps/kvstore":
		return "kvstore"
	case "netstack", "rdma", "mqueue", "memdev", "fabric", "accel", "core", "cluster":
		return pkg
	default:
		return "other"
	}
}
