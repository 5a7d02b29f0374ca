// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process — two simulator workloads, a live loopback swarm and
// an HTTP tracker under announce load — over a fixed list of ops made from
// the workload seed, checks every op's output, and prints the end-to-end
// metrics (tracing off). With --trace 1 it runs the same list a second time
// under a CPU profile, an active obs registry and its own spans, and prints
// the per-layer table. See README.md for the workloads, metrics and seeds.
//
//	bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady --runs 10 --seconds 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rarestfirst/internal/obs"
)

// setupRepeats is how many times each run sets the program up; setup_s is
// the median, so one slow set-up (a cold page cache, a GC landing inside
// it) does not move the metric.
const setupRepeats = 5

// workload is one benchmark workload. The runner calls setup setupRepeats
// times (each call replaces the previous state), then runs ops 0..numOps-1
// untraced, then check, and with tracing on runs the same ops again.
type workload interface {
	// setup builds the program state the ops run against and returns the
	// time the program took to set up; the benchmark's own input
	// generation stays outside it.
	setup() (time.Duration, error)
	numOps() int
	// op runs op i and returns the time of the op as the workload defines
	// it. acc is nil on the untraced pass; on the traced pass the op adds
	// its spans and counts to it. A *checkError marks wrong output; any
	// other error marks the op failed.
	op(i int, acc *accum) (time.Duration, error)
	// check runs the per-run checks that are not tied to one timed op.
	check() error
	// extras returns the workload-specific end-to-end figures of the
	// untraced pass (printed, and carried into the traced run's metrics).
	extras(p pass) map[string]float64
	// traced adds per-layer figures that need the untraced pass or work
	// outside the profiled pass; it runs after the profile stops.
	traced(acc *accum, plain pass) error
	close()
}

// checkError is a correctness failure: the op ran but its output is wrong.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// untimedCost is the time and heap the benchmark's own work inside a
// timed stretch used: checking an op's output (hashing a leecher's copy,
// parsing a tracker reply) and its housekeeping announces. measure and the
// set-ups take both out, so they do not count as the program's work.
var untimedCost struct {
	wall           time.Duration
	alloc, objects float64
}

// untimed runs f, the benchmark's own work, and books its cost to
// untimedCost.
func untimed(f func() error) error {
	a0, m0 := allocCounters()
	start := time.Now()
	err := f()
	untimedCost.wall += time.Since(start)
	a1, m1 := allocCounters()
	untimedCost.alloc += a1 - a0
	untimedCost.objects += m1 - m0
	return err
}

// pass is the record of one run over the op list.
type pass struct {
	wall      time.Duration
	lat       []time.Duration // per completed op
	failed    int
	peakHeap  float64 // bytes
	allocated float64 // bytes over the list
	mallocs   float64 // objects over the list
}

func (p pass) completed() int { return len(p.lat) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"sim-steady", "sim-flashcrowd", "live-swarm", "tracker-announce"}

func newWorkload(name string, seed int64, seconds int) (workload, error) {
	switch name {
	case "sim-steady":
		return newSimSteady(seed, seconds), nil
	case "sim-flashcrowd":
		return newSimFlashcrowd(seed, seconds), nil
	case "live-swarm":
		return newLiveSwarm(seed, seconds), nil
	case "tracker-announce":
		return newTrackerAnnounce(seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "run length: sizes the fixed op list")
		trace   = flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
		steady  = flag.Bool("steady", false, "steadiness mode: two sets of runs per workload, compared against BENCHMARK.json bounds")
		runs    = flag.Int("runs", 10, "steadiness mode: runs per set and workload")
		base    = flag.Int64("seed-base", 1, "steadiness mode: first seed of the first set; the second set starts 1000 later")
	)
	flag.Parse()
	if *steady {
		if err := runSteady(*runs, *seconds, *base); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds int, traced bool) (*result, error) {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer w.close()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v ops=%d\n", name, seed, seconds, traced, w.numOps())
	fmt.Printf("host nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID())

	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Correct = false
		fmt.Println("CHECK FAILED:", err)
	}

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // every set-up starts from a collected heap
		d, err := w.setup()
		if err != nil {
			var ce *checkError
			if errors.As(err, &ce) {
				fail(err)
				continue
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if len(setups) == 0 {
		return nil, errors.New("no set-up succeeded")
	}
	fmt.Printf("set-ups (s): %.4f\n", setups)

	plain := measure(w, nil, fail)
	if err := w.check(); err != nil {
		fail(err)
	}
	res.Attempted += w.numOps()
	res.Failed += plain.failed
	if plain.completed() == 0 {
		return nil, errors.New("every op failed")
	}
	ops := float64(plain.completed())
	e2e := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       ops / plain.wall.Seconds(),
		"op_ms_p50":       ms(percentileDur(plain.lat, 50)),
		"peak_heap_mb":    plain.peakHeap / 1e6,
		"alloc_mb_per_op": plain.allocated / ops / 1e6,
	}
	extra := w.extras(plain)
	printMetrics("end-to-end (tracing off)", e2e, extra)

	if !traced {
		for k, v := range e2e {
			res.Metrics[k] = metric{Value: v, Unit: e2eUnits[k]}
		}
		fmt.Printf("ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
		return res, nil
	}

	layers, tracedFailed, err := tracedPass(w, plain, fail)
	if err != nil {
		return nil, err
	}
	res.Attempted += w.numOps()
	res.Failed += tracedFailed
	for k, v := range extra {
		layers.put(k, v)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layers.vals[m.name], Unit: m.unit}
	}
	fmt.Printf("ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return res, nil
}

// measure runs the op list once. With acc nil it is the untraced pass.
func measure(w workload, acc *accum, fail func(error)) pass {
	var p pass
	runtime.GC()
	heap := startHeapSampler()
	a0, m0 := allocCounters()
	cost0 := untimedCost
	start := time.Now()
	for i := 0; i < w.numOps(); i++ {
		d, err := w.op(i, acc)
		var ce *checkError
		switch {
		case errors.As(err, &ce):
			fail(fmt.Errorf("op %d: %w", i, err))
			p.lat = append(p.lat, d)
		case err != nil:
			fmt.Printf("op %d failed: %v\n", i, err)
			p.failed++
		default:
			p.lat = append(p.lat, d)
		}
	}
	p.wall = time.Since(start) - (untimedCost.wall - cost0.wall)
	a1, m1 := allocCounters()
	p.peakHeap = heap.stop()
	p.allocated = a1 - a0 - (untimedCost.alloc - cost0.alloc)
	p.mallocs = m1 - m0 - (untimedCost.objects - cost0.objects)
	return p
}

var e2eUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_ms_p50":       "ms",
	"peak_heap_mb":    "MB",
	"alloc_mb_per_op": "MB",
}

func printMetrics(title string, ms ...map[string]float64) {
	fmt.Println(title + ":")
	for _, m := range ms {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-22s %14.6g %s\n", k, m[k], unitOf(k))
		}
	}
}

func unitOf(name string) string {
	if u, ok := e2eUnits[name]; ok {
		return u
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// tracedPass reruns the op list with a CPU profile, an active obs registry
// and the workload's spans, and turns the three into the per-layer table.
func tracedPass(w workload, plain pass, fail func(error)) (*accum, int, error) {
	acc := newAccum()
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	prof, err := startProfile()
	if err != nil {
		obs.SetDefault(nil)
		return nil, 0, err
	}
	tp := measure(w, acc, fail)
	samples, profErr := prof.stop()
	obs.SetDefault(nil)
	if profErr != nil {
		return nil, 0, profErr
	}
	if err := w.traced(acc, plain); err != nil {
		fail(err)
	}
	ops := float64(tp.completed())
	if ops == 0 {
		return nil, 0, errors.New("every traced op failed")
	}
	acc.scale(ops)
	acc.put("count.mallocs", tp.mallocs/ops)

	rows := attribute(samples)
	total := 0.0
	for _, v := range rows {
		total += v
	}
	for _, l := range layerRows {
		acc.put(l, rows[l]/ops)
	}
	acc.put("cpu.total_ms", total/ops)
	acc.put("wall_ms", tp.wall.Seconds()*1e3/ops)
	plainRate := float64(plain.completed()) / plain.wall.Seconds()
	tracedRate := ops / tp.wall.Seconds()
	acc.put("ratio.tracing_overhead", (plainRate-tracedRate)/plainRate)

	fmt.Println("per-layer table (traced pass, per op):")
	fmt.Printf("  %-28s %12s %7s\n", "layer", "cpu ms/op", "share")
	sum := 0.0
	for _, l := range layerRows {
		v := rows[l] / ops
		sum += v
		if v == 0 {
			continue
		}
		fmt.Printf("  %-28s %12.4f %6.1f%%\n", l, v, 100*v/(total/ops))
	}
	fmt.Printf("  %-28s %12.4f (rows sum %.4f)\n", "profiled cpu total", total/ops, sum)
	fmt.Printf("  %-28s %12.4f\n", "op wall ms", tp.wall.Seconds()*1e3/ops)
	fmt.Printf("tracing overhead: %.1f%% (ops_per_s %.4g untraced, %.4g traced)\n",
		100*acc.vals["ratio.tracing_overhead"], plainRate, tracedRate)
	printMetrics("per-layer metrics", acc.vals)
	return acc, tp.failed, nil
}

// accum collects per-layer figures on the traced pass: op-summed values
// are divided by the op count once the pass ends (scale); values put
// after that are stored as given.
type accum struct {
	vals map[string]float64
	sums map[string]float64
}

func newAccum() *accum { return &accum{vals: map[string]float64{}, sums: map[string]float64{}} }

// add sums a per-op figure (a span in ms, a count).
func (a *accum) add(name string, v float64) {
	if a != nil {
		a.sums[name] += v
	}
}

func (a *accum) put(name string, v float64) { a.vals[name] = v }

func (a *accum) scale(ops float64) {
	for k, v := range a.sums {
		a.vals[k] = v / ops
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
