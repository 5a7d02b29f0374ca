package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// layerRows are the CPU rows of the per-layer table. Every profile sample
// lands in exactly one of them, so the rows add up to the profiled CPU.
var layerRows = []string{
	"cpu.core.availability_ms",
	"cpu.core.choker_ms",
	"cpu.core.picker_ms",
	"cpu.core_ms",
	"cpu.swarm_ms",
	"cpu.sim.engine_ms",
	"cpu.sim.net_ms",
	"cpu.trace_ms",
	"cpu.report_ms",
	"cpu.hash_ms",
	"cpu.wire_ms",
	"cpu.client_ms",
	"cpu.rate_ms",
	"cpu.tracker_ms",
	"cpu.bencode_ms",
	"cpu.nethttp_ms",
	"cpu.syscall_ms",
	"cpu.runtime_gc_ms",
	"cpu.runtime_sched_ms",
	"cpu.bench_ms",
	"cpu.other_ms",
}

type layerMetric struct{ name, unit string }

// perLayer is the traced run's metric list, in BENCHMARK.json order.
var perLayer = func() []layerMetric {
	out := []layerMetric{
		// Workload-specific end-to-end figures, measured on the traced
		// run's untraced pass; 0 where the workload has no such figure.
		{"op_ms_p99", "ms"},
		{"sim_events_per_s", "1/s"},
		{"goodput_mbps", "MB/s"},
	}
	for _, l := range layerRows {
		out = append(out, layerMetric{l, "ms"})
	}
	return append(out,
		layerMetric{"cpu.total_ms", "ms"},
		layerMetric{"wall_ms", "ms"},
		layerMetric{"phase.lane_compute_ms", "ms"},
		layerMetric{"phase.lane_apply_ms", "ms"},
		layerMetric{"phase.merge_ms", "ms"},
		layerMetric{"phase.retime_flush_ms", "ms"},
		layerMetric{"phase.have_flush_ms", "ms"},
		layerMetric{"span.swarm_new_ms", "ms"},
		layerMetric{"span.swarm_run_ms", "ms"},
		layerMetric{"span.metainfo_build_ms", "ms"},
		layerMetric{"span.seed_new_ms", "ms"},
		layerMetric{"span.handler_ms_p50", "ms"},
		layerMetric{"count.sim_events", "count"},
		layerMetric{"count.lane_batches", "count"},
		layerMetric{"count.dirty_flushes", "count"},
		layerMetric{"count.merge_pops", "count"},
		layerMetric{"count.mallocs", "count"},
		layerMetric{"count.peers_returned", "count"},
		layerMetric{"ratio.useful_bytes", "ratio"},
		layerMetric{"ratio.tracing_overhead", "ratio"},
	)
}()

// profile is a running CPU profile written inside the build directory.
type profile struct {
	path string
	f    *os.File
}

func startProfile() (*profile, error) {
	dir := filepath.Join(".bench_build", "perfbench", "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

// sample is one profile stack, leaf first, with its CPU time in ms.
type sample struct {
	ms    float64
	stack []string
}

// stop ends the profile and reads its stacks back through go tool pprof.
func (p *profile) stop() ([]sample, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	defer os.Remove(p.path)
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// dashed lines, each a value and a leaf-first stack of function names.
func parseTraces(out []byte) ([]sample, error) {
	var (
		samples []sample
		cur     *sample
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			cur = nil
			continue
		}
		if !strings.HasPrefix(line, " ") || strings.TrimSpace(line) == "" {
			continue // header lines
		}
		fields := strings.Fields(line)
		if cur == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad value line %q", line)
			}
			samples = append(samples, sample{ms: d.Seconds() * 1e3})
			cur = &samples[len(samples)-1]
			fields = fields[1:]
		}
		if len(fields) == 0 || strings.HasPrefix(fields[0], "bytes:") {
			continue
		}
		cur.stack = append(cur.stack, fields[0]) // drops the " (inline)" marker
	}
	return samples, sc.Err()
}

// attribute sums sample time per layer row.
func attribute(samples []sample) map[string]float64 {
	rows := map[string]float64{}
	for _, s := range samples {
		rows[classify(s.stack)] += s.ms
	}
	return rows
}

// gcPrefixes mark garbage-collector work anywhere in a stack (background
// mark workers, assists inside mallocgc, sweeping, write barriers).
var gcPrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.greyobject",
	"runtime.sweepone", "runtime.deductSweepCredit", "runtime.wbBuf",
	"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
}

// schedFuncs are scheduler functions: a stack that reaches one of them
// before any layer frame is parking, waking or idling goroutines.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.notewakeup": true, "runtime.notesleep": true,
	"runtime.futexwakeup": true, "runtime.futexsleep": true, "runtime.futex": true,
	"runtime.usleep": true, "runtime.osyield": true, "runtime.handoffp": true,
	"runtime.goschedImpl": true, "runtime.gosched_m": true, "runtime.preemptPark": true,
	"runtime.sysmon": true, "runtime.netpoll": true, "runtime.goexit0": true,
	"runtime.newproc": true, "runtime.semrelease1": true, "runtime.semacquire1": true,
}

// transparent packages are attributed to their caller: sorting, maps,
// atomics, formatting and the runtime's allocator cost whichever layer
// called them.
func transparent(pkg string) bool {
	switch pkg {
	case "runtime", "sort", "slices", "maps", "math", "math/bits", "math/rand",
		"math/rand/v2", "container/heap", "container/list", "sync", "sync/atomic",
		"bytes", "strings", "strconv", "unicode", "unicode/utf8", "fmt", "errors",
		"io", "bufio", "reflect", "time", "context", "encoding/binary",
		"encoding/json", "encoding/hex", "hash", "os", "iter",
		"rarestfirst/internal/bitfield":
		return true
	}
	return strings.HasPrefix(pkg, "internal/") && !strings.HasPrefix(pkg, "internal/poll") &&
		!strings.HasPrefix(pkg, "internal/runtime/syscall") && !strings.HasPrefix(pkg, "internal/syscall")
}

// pkgOf returns the import path of a profile function name such as
// "rarestfirst/internal/core.(*Availability).move".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func classify(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "cpu.runtime_gc_ms"
			}
		}
		if strings.HasPrefix(fn, "runtime/pprof.") {
			return "cpu.trace_ms" // the profiler writing its own samples
		}
	}
	allRuntime := true
	for i, fn := range stack {
		if schedFuncs[fn] {
			return "cpu.runtime_sched_ms"
		}
		pkg := pkgOf(fn)
		if pkg != "runtime" {
			allRuntime = false
		}
		if transparent(pkg) {
			continue
		}
		if pkg == "main" || strings.HasPrefix(pkg, "rarestfirst") {
			return layerOf(pkg, fn)
		}
		// A standard-library layer (hashing, net/http, syscalls) is the
		// benchmark's own work when the benchmark, not the program, is
		// its nearest caller: the output checks hash and parse too.
		for _, caller := range stack[i+1:] {
			if cp := pkgOf(caller); cp == "main" {
				return "cpu.bench_ms"
			} else if strings.HasPrefix(cp, "rarestfirst") {
				break
			}
		}
		return layerOf(pkg, fn)
	}
	if allRuntime {
		return "cpu.runtime_sched_ms"
	}
	return "cpu.other_ms"
}

// layerOf maps a non-transparent frame to its row. Inside internal/core
// and internal/sim the row follows the type or function name.
func layerOf(pkg, fn string) string {
	switch pkg {
	case "rarestfirst/internal/core":
		name := fn[len(pkg):]
		switch {
		case strings.Contains(name, "Availability"):
			return "cpu.core.availability_ms"
		case strings.Contains(name, "Choker"), strings.Contains(name, "choke"),
			strings.Contains(name, "pickCandidate"), strings.Contains(name, "stableSortPeers"),
			strings.Contains(name, "containsID"), strings.Contains(name, "containsPeer"):
			return "cpu.core.choker_ms"
		case strings.Contains(name, "Pick"), strings.Contains(name, "pick"),
			strings.Contains(name, "Rarest"), strings.Contains(name, "selectBit"):
			return "cpu.core.picker_ms"
		}
		return "cpu.core_ms"
	case "rarestfirst/internal/sim":
		name := fn[len(pkg):]
		if strings.Contains(name, "Net") || strings.Contains(name, "Flow") || strings.Contains(name, "flow") {
			return "cpu.sim.net_ms"
		}
		return "cpu.sim.engine_ms"
	case "rarestfirst/internal/swarm":
		return "cpu.swarm_ms"
	case "rarestfirst/internal/trace", "rarestfirst/internal/obs":
		return "cpu.trace_ms"
	case "rarestfirst", "rarestfirst/internal/analysis":
		return "cpu.report_ms" // buildReport and the figure analyses
	case "rarestfirst/internal/wire":
		return "cpu.wire_ms"
	case "rarestfirst/internal/client", "rarestfirst/internal/metainfo":
		return "cpu.client_ms"
	case "rarestfirst/internal/rate":
		return "cpu.rate_ms"
	case "rarestfirst/internal/tracker":
		return "cpu.tracker_ms"
	case "rarestfirst/internal/bencode":
		return "cpu.bencode_ms"
	case "main":
		return "cpu.bench_ms"
	case "syscall", "net", "os/signal":
		return "cpu.syscall_ms"
	}
	switch {
	case strings.HasPrefix(pkg, "crypto/"):
		return "cpu.hash_ms"
	case strings.HasPrefix(pkg, "net/http"), pkg == "net/url", pkg == "net/textproto", strings.HasPrefix(pkg, "mime"):
		return "cpu.nethttp_ms"
	case strings.HasPrefix(pkg, "internal/poll"), strings.HasPrefix(pkg, "internal/runtime/syscall"),
		strings.HasPrefix(pkg, "internal/syscall"), strings.HasPrefix(pkg, "runtime/internal/syscall"):
		return "cpu.syscall_ms"
	}
	return "cpu.other_ms"
}
