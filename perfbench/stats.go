package main

import (
	"crypto/sha1"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// mixSeed derives the i-th input seed of a run from the workload seed
// (splitmix64), so every input of a run follows from --seed alone.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1 // positive and nonzero: 0 means "catalog seed" to the simulator
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is how the steadiness rule is defined.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentileDur is the nearest-rank percentile.
func percentileDur(ds []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// heapSampler tracks the peak live heap — the bytes the last garbage
// collection found reachable — by polling runtime/metrics, which needs no
// stop-the-world. Unlike total heap objects, the live heap does not
// depend on how far the collector lagged behind allocation.
type heapSampler struct {
	stopCh chan struct{}
	done   chan float64
}

const heapLive = "/gc/heap/live:bytes"

func readHeap() float64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := readHeap()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				h.done <- math.Max(peak, readHeap())
				return
			case <-t.C:
				peak = math.Max(peak, readHeap())
			}
		}
	}()
	return h
}

// stop ends the sampler and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	return <-h.done
}

// allocCounters returns cumulative heap bytes and objects allocated.
func allocCounters() (bytes, objects float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
}

// commitID names the code under test: the git commit when the checkout is
// a repository, and a digest of the Go sources either way (a benchmark
// checkout need not be a git repository).
func commitID() string {
	return gitHead() + " src=" + sourceDigest()
}

func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return shortHash(strings.TrimSpace(string(head)))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return shortHash(strings.TrimSpace(string(b)))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if h, r, ok := strings.Cut(line, " "); ok && r == ref {
			return shortHash(h)
		}
	}
	return "none"
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// sourceDigest hashes every .go file and go.mod under the working
// directory, in path order, skipping the build directory.
func sourceDigest() string {
	d := sha1.New()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == ".git" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(d, "%s\x00", path)
		_, err = io.Copy(d, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", d.Sum(nil))[:12]
}
