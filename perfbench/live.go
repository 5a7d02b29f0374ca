package main

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"rarestfirst/internal/client"
	"rarestfirst/internal/metainfo"
	"rarestfirst/internal/tracker"
)

// Live-swarm sizing. Uploads are uncapped and the choke interval is short,
// so an op is bound by hashing, the wire path and loopback TCP, not by a
// timer the program waits on.
const (
	liveContentMB   = 32
	livePieceSize   = 256 << 10
	liveChokeEvery  = 20 * time.Millisecond
	liveUncapped    = 1 << 40 // bytes/s: far above loopback speed
	liveOpTimeout   = 60 * time.Second
	liveOpSeconds   = 0.35 // nominal op plus its untimed set-up and checks
	liveAnnounceSec = 1    // tracker re-announce interval
)

// liveBench is one loopback tracker and one seed, which every set-up
// builds afresh; each op is a fresh swarm of nproc leechers downloading the content from
// them over real TCP, timed from the leechers' Start to the last verified
// completion.
type liveBench struct {
	seed     int64
	n        int
	leechers int
	content  []byte
	hashes   [][20]byte

	srv      *http.Server
	announce string
	meta     *metainfo.MetaInfo
	seeder   *client.Client

	metaBuild, seedNew []float64 // per set-up, ms
	bytesDone          float64   // verified bytes over the untraced pass
	transfer           time.Duration
	tracedBytes        float64
	tracedUploaded     float64
}

func newLiveSwarm(seed int64, seconds int) workload {
	b := &liveBench{
		seed:     seed,
		n:        opCount(seconds, liveOpSeconds, 4),
		leechers: runtime.NumCPU(),
		content:  make([]byte, liveContentMB<<20),
	}
	rand.New(rand.NewSource(seed)).Read(b.content)
	for off := 0; off < len(b.content); off += livePieceSize {
		b.hashes = append(b.hashes, sha1.Sum(b.content[off:min(off+livePieceSize, len(b.content))]))
	}
	return b
}

func (b *liveBench) teardown() {
	if b.seeder != nil {
		b.seeder.Stop()
		b.seeder = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// setup starts the loopback tracker, builds the metainfo and starts the
// seed. Building the metainfo and constructing the seed both hash the
// whole content.
func (b *liveBench) setup() (time.Duration, error) {
	b.teardown()
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b.srv = &http.Server{Handler: tracker.NewServer(liveAnnounceSec).Handler()}
	go b.srv.Serve(ln)
	b.announce = fmt.Sprintf("http://%s/announce", ln.Addr())
	t0 := time.Now()
	b.meta, err = metainfo.Build("perfbench.bin", b.announce, b.content, livePieceSize)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	b.seeder, err = client.New(client.Options{
		Meta: b.meta, Content: b.content, UploadBps: liveUncapped,
		ChokeInterval: liveChokeEvery, Seed: mixSeed(b.seed, 0),
	})
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	if err := b.seeder.Start("127.0.0.1:0", b.announce); err != nil {
		return 0, err
	}
	d := time.Since(start)
	b.metaBuild = append(b.metaBuild, ms(t1.Sub(t0)))
	b.seedNew = append(b.seedNew, ms(t2.Sub(t1)))
	for i, h := range b.meta.Info.Hashes {
		if h != b.hashes[i] {
			return d, checkf("metainfo piece %d hash differs from crypto/sha1", i)
		}
	}
	return d, nil
}

func (b *liveBench) numOps() int { return b.n }

func (b *liveBench) op(i int, acc *accum) (time.Duration, error) {
	cs := make([]*client.Client, b.leechers)
	completions := make(chan time.Time, len(cs)) // one send per leecher
	for j := range cs {
		c, err := client.New(client.Options{
			Meta: b.meta, UploadBps: liveUncapped, ChokeInterval: liveChokeEvery,
			Seed: mixSeed(b.seed, 1+i*b.leechers+j),
		})
		if err != nil {
			b.stopAll(cs)
			return 0, err
		}
		c.OnComplete(func() { completions <- time.Now() })
		cs[j] = c
	}
	seedUp0, _ := b.seeder.Stats()
	start := time.Now()
	for _, c := range cs {
		if err := c.Start("127.0.0.1:0", b.announce); err != nil {
			b.stopAll(cs)
			return 0, err
		}
	}
	timeout := time.NewTimer(liveOpTimeout)
	defer timeout.Stop()
	var last time.Time
	for range cs {
		select {
		case last = <-completions:
		case <-timeout.C:
			b.stopAll(cs)
			return 0, errors.New("swarm did not complete")
		}
	}
	d := last.Sub(start)

	err := untimed(func() error { return b.verify(cs) })
	up, _ := b.seeder.Stats()
	uploaded := float64(up - seedUp0)
	for _, c := range cs {
		u, _ := c.Stats()
		uploaded += float64(u)
	}
	b.stopAll(cs)
	delivered := float64(len(b.content) * len(cs))
	if acc == nil {
		b.bytesDone += delivered
		b.transfer += d
	} else {
		b.tracedBytes += delivered
		b.tracedUploaded += uploaded
	}
	return d, err
}

// verify checks every leecher's bytes against the generated content and
// every piece against the benchmark's own SHA-1.
func (b *liveBench) verify(cs []*client.Client) error {
	for j, c := range cs {
		got := c.Bytes()
		if len(got) != len(b.content) {
			return checkf("leecher %d holds %d bytes, want %d", j, len(got), len(b.content))
		}
		for p, h := range b.hashes {
			off := p * livePieceSize
			if sha1.Sum(got[off:min(off+livePieceSize, len(got))]) != h {
				return checkf("leecher %d piece %d fails SHA-1", j, p)
			}
		}
		if !bytes.Equal(got, b.content) {
			return checkf("leecher %d bytes differ from the content", j)
		}
	}
	return nil
}

// stopAll stops the leechers and tells the tracker they left, so the next
// swarm's announces list only live peers. Client.Stop sends no "stopped"
// announce itself, so the benchmark sends it, untimed.
func (b *liveBench) stopAll(cs []*client.Client) {
	for _, c := range cs {
		if c == nil {
			continue
		}
		port := c.Port()
		c.Stop()
		if port > 0 {
			// Best effort: a failed "stopped" announce only leaves a dead
			// address the next swarm's dials fail fast on.
			_ = untimed(func() error {
				_, err := tracker.Announce(tracker.AnnounceRequest{
					URL: b.announce, InfoHash: b.meta.InfoHash(), PeerID: c.PeerID(),
					Port: port, Event: "stopped", Compact: true,
				})
				return err
			})
		}
	}
}

func (b *liveBench) check() error { return nil }

func (b *liveBench) extras(p pass) map[string]float64 {
	return map[string]float64{"goodput_mbps": b.bytesDone / b.transfer.Seconds() / 1e6}
}

func (b *liveBench) traced(acc *accum, plain pass) error {
	acc.put("span.metainfo_build_ms", median(b.metaBuild))
	acc.put("span.seed_new_ms", median(b.seedNew))
	if b.tracedUploaded > 0 {
		acc.put("ratio.useful_bytes", b.tracedBytes/b.tracedUploaded)
	}
	return nil
}

func (b *liveBench) close() { b.teardown() }
