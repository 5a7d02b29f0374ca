package main

import (
	"strconv"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// e.g. quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v", m)
	}
	q1, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 = %v, %v; want 1, 3", q1, q3)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "rarestfirst/internal/core.(*Availability).move", "rarestfirst/internal/swarm.(*Swarm).x"}, "cpu.core.availability_ms"},
		{[]string{"sort.insertionSort", "rarestfirst/internal/core.stableSortPeers", "rarestfirst/internal/core.(*LeecherChoker).Round"}, "cpu.core.choker_ms"},
		{[]string{"rarestfirst/internal/core.(*RarestFirst).Pick"}, "cpu.core.picker_ms"},
		{[]string{"rarestfirst/internal/sim.(*Net).Flush"}, "cpu.sim.net_ms"},
		{[]string{"rarestfirst/internal/sim.(*Engine).Run"}, "cpu.sim.engine_ms"},
		{[]string{"sort.Float64s", "rarestfirst/internal/analysis.CDF", "rarestfirst.buildReport", "rarestfirst.Run"}, "cpu.report_ms"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.runtime_gc_ms"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "rarestfirst/internal/swarm.f"}, "cpu.runtime_gc_ms"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "cpu.runtime_sched_ms"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "rarestfirst/internal/wire.(*Encoder).Flush"}, "cpu.syscall_ms"},
		{[]string{"crypto/sha1.blockAVX2", "crypto/sha1.Sum", "rarestfirst/internal/metainfo.(*MetaInfo).VerifyPiece"}, "cpu.hash_ms"},
		{[]string{"crypto/sha1.blockAVX2", "crypto/sha1.Sum", "main.(*liveBench).verify"}, "cpu.bench_ms"},
		{[]string{"net/http.(*conn).serve"}, "cpu.nethttp_ms"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "cpu.trace_ms"},
		{[]string{"rarestfirst/internal/bitfield.(*Bitfield).Has", "rarestfirst/internal/core.(*Requester).next"}, "cpu.core_ms"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      10ms   crypto/sha1.blockAVX2
             crypto/sha1.block (inline)
             main.main
-----------+-------------------------------------------------------
      1.20s   runtime.futex
-----------+-------------------------------------------------------
`)
	s, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].ms != 10 || len(s[0].stack) != 3 || s[0].stack[1] != "crypto/sha1.block" || s[1].ms != 1200 {
		t.Fatalf("parseTraces = %+v", s)
	}
}

func TestCheckAnnounce(t *testing.T) {
	a, b2, self := addrKey([4]byte{10, 0, 0, 1}, 1), addrKey([4]byte{10, 0, 0, 2}, 2), addrKey([4]byte{10, 0, 0, 3}, 3)
	s := &trkSwarm{present: map[[6]byte]bool{a: true, b2: true, self: true}, complete: 1}
	reply := func(complete, incomplete int, peers ...[6]byte) []byte {
		var p []byte
		for _, k := range peers {
			p = append(p, k[:]...)
		}
		return []byte("d8:completei" + strconv.Itoa(complete) + "e10:incompletei" + strconv.Itoa(incomplete) +
			"e8:intervali1800e5:peers" + strconv.Itoa(len(p)) + ":" + string(p) + "e")
	}
	if n, err := checkAnnounce(reply(1, 2, a, b2), s, self); err != nil || n != 2 {
		t.Fatalf("good reply: n=%d err=%v", n, err)
	}
	for name, body := range map[string][]byte{
		"wrong tally":   reply(2, 1, a, b2),
		"lists self":    reply(1, 2, a, self),
		"duplicate":     reply(1, 2, a, a),
		"short":         reply(1, 2, a),
		"not a member":  reply(1, 2, a, addrKey([4]byte{10, 9, 9, 9}, 9)),
		"failure":       []byte("d14:failure reason4:nopee"),
		"trailing junk": append(reply(1, 2, a, b2), 'x'),
	} {
		if _, err := checkAnnounce(body, s, self); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMixSeedPositive(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := mixSeed(1, i)
		if s <= 0 || seen[s] {
			t.Fatalf("mixSeed(1, %d) = %d", i, s)
		}
		seen[s] = true
	}
	if mixSeed(1, 0) == mixSeed(2, 0) {
		t.Fatal("seeds collide")
	}
}
