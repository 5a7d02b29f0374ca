package main

import (
	"bytes"
	"math"
	"reflect"
	"time"

	rf "rarestfirst"
	"rarestfirst/internal/obs"
	"rarestfirst/internal/scenario"
	"rarestfirst/internal/swarm"
	"rarestfirst/internal/torrents"
)

// simBench runs one simulator scenario per op, each with its own seed from
// the run's seed list. The workload's scenario is registered in the
// program's scenario registry, so the public rarestfirst.Scenario each op
// runs and the internal spec the span pass configures are expanded from
// one definition. Every op, traced or not, is rarestfirst.Run.
type simBench struct {
	name  string        // registry name
	base  scenario.Spec // the registered scenario, catalog seed
	want  *rf.Scenario  // the public scenario the expansion must equal, if any
	seeds []int64
	// checkReport holds the workload's per-op checks.
	checkReport func(rep *rf.Report) error

	scenarios []rf.Scenario // warm-up first, then the op list
	warmLine  []byte
	reports   []*rf.Report // untraced op results, for the DebugChecks cross-check
	events    float64      // engine events over the traced pass
}

// Nominal op times on a 2-core x86 host; they only size the op list so a
// run lasts about --seconds.
const (
	steadyOpSeconds = 3.5
	flashOpSeconds  = 1.25
)

func opCount(seconds int, opSeconds float64, least int) int {
	return max(least, int(math.Ceil(float64(seconds)/opSeconds)))
}

func newSimBench(name string, base scenario.Spec, seed int64, n int, check func(*rf.Report) error) *simBench {
	scenario.Register(scenario.Def{
		Name:        name,
		Description: "perfbench workload " + name,
		Build:       func(scenario.Options) []scenario.Spec { return []scenario.Spec{base} },
	})
	b := &simBench{name: name, base: base, checkReport: check}
	for i := 0; i < n; i++ {
		b.seeds = append(b.seeds, mixSeed(seed, i+1))
	}
	b.reports = make([]*rf.Report, n)
	return b
}

// newSimSteady is the paper's steady torrent 7 at LargeSwarmScale on the
// default schedule: serial engine, one heap, eager availability buckets.
func newSimSteady(seed int64, seconds int) workload {
	lg := rf.LargeSwarmScenario()
	sp := scenario.Spec{Label: lg.Label, TorrentID: lg.TorrentID, Scale: torrents.Scale(lg.Scale)}
	b := newSimBench("perfbench-sim-steady", sp, seed, opCount(seconds, steadyOpSeconds, 2), checkSteady)
	b.want = &lg
	return b
}

// Flash-crowd sizing: torrent 8's transient arrival rate times
// flashChurnScale into a 6000-peer cap gives about 6k arrivals per op.
const flashChurnScale = 12

func newSimFlashcrowd(seed int64, seconds int) workload {
	sp := scenario.Spec{
		Label:     "flash-crowd",
		TorrentID: 8,
		Scale: torrents.Scale{
			MaxPeers: 6000, MaxContentMB: 24, MaxPieces: 256,
			Duration: 180, Warmup: 60, Seed: 42,
		},
		ChokeLanes: true,
		HeapShards: 32,
		BatchHaves: true,
		ChurnScale: flashChurnScale,
	}
	b := newSimBench("perfbench-sim-flashcrowd", sp, seed, opCount(seconds, flashOpSeconds, 4), nil)
	b.checkReport = b.checkFlashcrowd
	return b
}

// allSeeds is the registry fan-out: the warm-up, then the op list. The
// warm-up runs the scenario's catalog seed (SeedOverride 0), so every run
// sets up with the same work whatever its --seed.
func (b *simBench) allSeeds() []int64 { return append([]int64{0}, b.seeds...) }

// setup expands the scenario list through the registry and runs the
// warm-up scenario outside the timed list; every set-up's warm-up report
// must serialize byte-identically.
func (b *simBench) setup() (time.Duration, error) {
	start := time.Now()
	suite, err := rf.NewSuite(b.name, rf.SuiteOptions{Seeds: b.allSeeds()})
	if err != nil {
		return 0, err
	}
	b.scenarios = suite.Scenarios
	rep, err := rf.Run(b.scenarios[0])
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if b.want != nil {
		if sc := b.scenarios[0]; !reflect.DeepEqual(sc, *b.want) {
			return d, checkf("registered scenario %+v differs from %+v", sc, *b.want)
		}
	}
	line, err := rep.JSONLine()
	if err != nil {
		return 0, err
	}
	if b.warmLine != nil && !bytes.Equal(line, b.warmLine) {
		return d, checkf("re-run of (torrent %d, seed %d) in one process gave a different Report.JSONLine", b.base.TorrentID, b.base.Scale.Seed)
	}
	b.warmLine = line
	if err := b.checkReport(rep); err != nil {
		return d, err
	}
	return d, nil
}

func (b *simBench) numOps() int { return len(b.seeds) }

// op runs rarestfirst.Run on op i's scenario. On the traced pass it also
// books the engine's event count and the report's scheduler counters and
// phase timers.
func (b *simBench) op(i int, acc *accum) (time.Duration, error) {
	events := obs.Active().Counter("sim_events_total")
	e0 := events.Value()
	start := time.Now()
	rep, err := rf.Run(b.scenarios[1+i])
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	if acc == nil {
		b.reports[i] = rep
	} else {
		ev := float64(events.Value() - e0)
		b.events += ev
		acc.add("count.sim_events", ev)
		acc.add("count.lane_batches", float64(rep.Events.LaneBatches))
		acc.add("count.dirty_flushes", float64(rep.Events.DirtyFlushes))
		acc.add("count.merge_pops", float64(rep.Events.MergePops))
		acc.add("phase.lane_compute_ms", float64(rep.Events.LaneComputeNs)/1e6)
		acc.add("phase.lane_apply_ms", float64(rep.Events.LaneApplyNs)/1e6)
		acc.add("phase.merge_ms", float64(rep.Events.MergeNs)/1e6)
		acc.add("phase.retime_flush_ms", float64(rep.Events.RetimeFlushNs)/1e6)
		acc.add("phase.have_flush_ms", float64(rep.Events.HaveFlushNs)/1e6)
	}
	return d, untimed(func() error { return b.checkReport(rep) })
}

// check runs the first op again with the swarm invariant checker on. The
// checker panics on a violated invariant; it is a pure read, so the run
// must also match the unchecked one.
func (b *simBench) check() (err error) {
	sc := b.scenarios[1]
	sc.DebugChecks = true
	defer func() {
		if r := recover(); r != nil {
			err = checkf("invariant checker failed on seed %d: %v", sc.SeedOverride, r)
		}
	}()
	rep, err := rf.Run(sc)
	if err != nil {
		return err
	}
	if want := b.reports[0]; want != nil &&
		(rep.Arrivals != want.Arrivals || rep.LocalDownloadSeconds != want.LocalDownloadSeconds) {
		return checkf("DebugChecks run of seed %d diverged from the unchecked run", sc.SeedOverride)
	}
	return b.checkReport(rep)
}

func (b *simBench) extras(p pass) map[string]float64 { return nil }

// traced turns the traced pass's event count into events per host second
// of the untraced pass: events per (scenario, seed) are deterministic, so
// both passes simulate the same events. It then times the scenario config
// plus swarm.New, and Swarm.Run, of every op in an unprofiled pass of its
// own, from the same registry expansion the ops ran.
func (b *simBench) traced(acc *accum, plain pass) error {
	acc.put("sim_events_per_s", b.events/plain.wall.Seconds())
	def, _ := scenario.Lookup(b.name)
	for _, sp := range def.Scenarios(scenario.Options{Seeds: b.seeds}) {
		t0 := time.Now()
		cfg, _, err := sp.Config()
		if err != nil {
			return err
		}
		sw := swarm.New(cfg)
		t1 := time.Now()
		sw.Run()
		acc.add("span.swarm_new_ms", ms(t1.Sub(t0)))
		acc.add("span.swarm_run_ms", ms(time.Since(t1)))
	}
	return nil
}

func (b *simBench) close() {}

// checkSteady holds sim-steady's per-op checks: the local peer completes,
// the run shows the steady state, no piece is ever lost from the torrent
// (Fig 4: global minimum copies >= 1 at every sample), and the local
// peer's interest in remote leechers stays near one (Fig 1, a/b).
func checkSteady(rep *rf.Report) error {
	if !rep.LocalCompleted {
		return checkf("seed %d: local peer did not complete", rep.Scenario.SeedOverride)
	}
	if rep.DetectedState != "steady" {
		return checkf("seed %d: detected state %q, want steady", rep.Scenario.SeedOverride, rep.DetectedState)
	}
	if len(rep.Availability) == 0 {
		return checkf("seed %d: no availability samples", rep.Scenario.SeedOverride)
	}
	for _, a := range rep.Availability {
		if a.GlobalMin < 1 {
			return checkf("seed %d: global min copies %d at t=%.0f", rep.Scenario.SeedOverride, a.GlobalMin, a.T)
		}
	}
	if e := rep.Entropy.AOverB; e.N == 0 || e.P50 < 0.8 {
		return checkf("seed %d: median entropy a/b %.3f over %d peers, want close to 1", rep.Scenario.SeedOverride, e.P50, e.N)
	}
	return nil
}

// checkFlashcrowd: the run is transient, and the arrival count falls in a
// five-sigma Poisson band around the initial leechers, the local peer and
// torrent 8's arrival rate times ChurnScale over the simulated window.
func (b *simBench) checkFlashcrowd(rep *rf.Report) error {
	seed := rep.Scenario.SeedOverride
	if rep.DetectedState != "transient" {
		return checkf("seed %d: detected state %q, want transient", seed, rep.DetectedState)
	}
	sp := b.base
	sp.SeedOverride, sp.ChurnScale = seed, 0
	cfg, _, err := sp.Config()
	if err != nil {
		return err
	}
	lambda := cfg.ArrivalRate * flashChurnScale * (cfg.LocalJoinTime + cfg.Duration)
	want := float64(cfg.InitialLeechers+1) + lambda
	if dev := math.Abs(float64(rep.Arrivals) - want); dev > 5*math.Sqrt(lambda) {
		return checkf("seed %d: %d arrivals, want %.0f ± %.0f", seed, rep.Arrivals, want, 5*math.Sqrt(lambda))
	}
	return nil
}
