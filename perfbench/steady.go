package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs two sets of `runs` untraced runs of each workload with
// this binary, one seed per run (the second set's seeds start 1000 after
// the first's), and prints every end-to-end metric's median and quartiles
// per set. It flags a metric whose quartile spread exceeds its bound,
// whose median moved the worse way by more than its
// bound between the sets, and any workload whose failed-op share differs.
func runSteady(runs, seconds int, seedBase int64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range workloadNames {
		var sets [2][]*result
		for set := 0; set < 2; set++ {
			for r := 0; r < runs; r++ {
				seed := seedBase + int64(set*1000+r)
				res, err := runOnce(self, w, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				if !res.Correct {
					fmt.Printf("FLAG %s seed %d: correctness check failed\n", w, seed)
					flagged++
				}
				sets[set] = append(sets[set], res)
			}
		}
		fmt.Printf("\n%s: %d runs per set, %d s each\n", w, runs, seconds)
		fmt.Printf("  %-16s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s\n",
			"metric", "med1", "q1", "q3", "spread1", "med2", "q1", "q3", "spread2", "shift", "bound")
		for _, m := range spec.EndToEnd {
			var st [2]struct{ med, q1, q3, spread float64 }
			for set := 0; set < 2; set++ {
				var xs []float64
				for _, res := range sets[set] {
					xs = append(xs, res.Metrics[m.Name].Value)
				}
				s := &st[set]
				s.med = median(xs)
				s.q1, s.q3 = quartiles(xs)
				s.spread = (s.q3 - s.q1) / s.med
			}
			shift := (st[1].med - st[0].med) / st[0].med
			worse := shift
			if m.Better == "higher" {
				worse = -shift
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %12.6g %12.6g %7.2f%% | %+7.2f%% %5.0f%%\n",
				m.Name, st[0].med, st[0].q1, st[0].q3, 100*st[0].spread,
				st[1].med, st[1].q1, st[1].q3, 100*st[1].spread, 100*shift, 100*m.Bound)
			for set := 0; set < 2; set++ {
				if st[set].spread > m.Bound {
					fmt.Printf("FLAG %s %s: set %d spread %.2f%% exceeds bound %.0f%%\n", w, m.Name, set+1, 100*st[set].spread, 100*m.Bound)
					flagged++
				}
			}
			if worse > m.Bound {
				fmt.Printf("FLAG %s %s: second median worse by %.2f%%, bound %.0f%%\n", w, m.Name, 100*worse, 100*m.Bound)
				flagged++
			}
		}
		var fail, att [2]int
		for set := 0; set < 2; set++ {
			for _, res := range sets[set] {
				att[set] += res.Attempted
				fail[set] += res.Failed
			}
		}
		fmt.Printf("  failed ops: set 1 %d/%d, set 2 %d/%d\n", fail[0], att[0], fail[1], att[1])
		if fail[0]*att[1] != fail[1]*att[0] {
			fmt.Printf("FLAG %s: failed-op share differs between sets\n", w)
			flagged++
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d flags", flagged)
	}
	fmt.Println("\nsteady: every metric within its bound")
	return nil
}

// runOnce runs one untraced benchmark run in a child process and parses
// the result line it prints last.
func runOnce(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	return &res, nil
}
