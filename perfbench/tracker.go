package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"rarestfirst/internal/obs"
	"rarestfirst/internal/tracker"
)

// Tracker population and announce mix. The large swarm is where the
// tracker's peer sampling does the most work per announce; the small
// swarms are the common case. Every member re-announces on the same
// interval, so an op's member is drawn uniformly over the population. The
// completed and restart shares are assumptions, not measurements (see
// README.md).
const (
	trkLargePeers   = 2000
	trkSmallSwarms  = 400
	trkSmallPeers   = 8
	trkCompleted    = 0.1 // share of ops that are "completed" announces
	trkRestart      = 0.1 // share of ops that are a stopped-then-started pair
	trkNumWant      = 50  // peers asked for per announce
	trkContentBytes = 1 << 30
	trkOpsPerSecond = 2500 // nominal, only sizes the op list
)

type trkMember struct {
	peerID [20]byte
	ip     [4]byte
	port   uint16
	left   int64
	query  string // the fixed part of this member's announce query
}

type trkSwarm struct {
	infoHash [20]byte
	members  []*trkMember
	present  map[[6]byte]bool // registered addresses, the benchmark's own tally
	complete int
}

// trkOp is one generated announce op; a restart expands to two announces.
type trkOp struct {
	swarm, member int
	kind          byte // 'r' re-announce, 'c' completed, 's' stopped+started
}

// trackerBench is a closed loop of HTTP announces over one keep-alive
// loopback connection to a pre-populated tracker: each announce is sent
// when the previous reply has been read and checked.
type trackerBench struct {
	seed   int64
	swarms []*trkSwarm
	ops    []trkOp
	nAnn   int // announces in ops

	srv     *http.Server
	trk     *tracker.Server
	base    string
	http    *http.Client
	handler http.Handler // in-process target; nil sends over the socket
	cursor  int          // next generated op
	half    bool         // between the two announces of a restart op
}

func newTrackerAnnounce(seed int64, seconds int) workload {
	b := &trackerBench{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	ipIdx := 0
	addSwarm := func(n int) {
		s := &trkSwarm{}
		rng.Read(s.infoHash[:])
		for i := 0; i < n; i++ {
			m := &trkMember{port: uint16(6881 + ipIdx%1000)}
			rng.Read(m.peerID[:])
			ipIdx++
			m.ip = [4]byte{10, byte(ipIdx >> 16), byte(ipIdx >> 8), byte(ipIdx)}
			m.query = "info_hash=" + url.QueryEscape(string(s.infoHash[:])) +
				"&peer_id=" + url.QueryEscape(string(m.peerID[:])) +
				"&port=" + strconv.Itoa(int(m.port)) +
				"&ip=" + net.IP(m.ip[:]).String() +
				"&uploaded=0&downloaded=0&compact=1&numwant=" + strconv.Itoa(trkNumWant)
			s.members = append(s.members, m)
		}
		b.swarms = append(b.swarms, s)
	}
	addSwarm(trkLargePeers)
	for i := 0; i < trkSmallSwarms; i++ {
		addSwarm(trkSmallPeers)
	}
	var population []trkOp // every (swarm, member)
	for si, sw := range b.swarms {
		for mi := range sw.members {
			population = append(population, trkOp{swarm: si, member: mi})
		}
	}
	total := seconds * trkOpsPerSecond
	for b.nAnn < total {
		op := population[rng.Intn(len(population))]
		switch r := rng.Float64(); {
		case r < trkCompleted:
			op.kind = 'c'
			b.nAnn++
		case r < trkCompleted+trkRestart && b.nAnn+2 <= total:
			op.kind = 's'
			b.nAnn += 2
		default:
			op.kind = 'r'
			b.nAnn++
		}
		b.ops = append(b.ops, op)
	}
	return b
}

// resetState empties the tally and draws each member's starting state:
// about a third are seeds.
func (b *trackerBench) resetState() {
	rng := rand.New(rand.NewSource(mixSeed(b.seed, 1)))
	for _, s := range b.swarms {
		s.present = make(map[[6]byte]bool, len(s.members))
		s.complete = 0
		for _, m := range s.members {
			m.left = 0
			if rng.Float64() >= 0.3 {
				m.left = 1 + rng.Int63n(trkContentBytes)
			}
		}
	}
}

func (b *trackerBench) teardown() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
	if b.http != nil {
		b.http.CloseIdleConnections()
	}
}

// setup starts a fresh tracker on a loopback socket and registers every
// member with a "started" announce over the benchmark's connection. The
// checks of the registration replies are taken out of the set-up time.
func (b *trackerBench) setup() (time.Duration, error) {
	b.teardown()
	b.resetState()
	b.handler = nil
	cost0 := untimedCost.wall
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b.trk = tracker.NewServer(0)
	b.srv = &http.Server{Handler: b.trk.Handler()}
	go b.srv.Serve(ln)
	b.base = fmt.Sprintf("http://%s/announce?", ln.Addr())
	b.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	if err := b.populate(); err != nil {
		return 0, err
	}
	return time.Since(start) - (untimedCost.wall - cost0), nil
}

func (b *trackerBench) populate() error {
	for _, s := range b.swarms {
		for _, m := range s.members {
			if _, _, err := b.announce(s, m, "started", m.left); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *trackerBench) numOps() int { return b.nAnn }

// op runs announce i of the list. A restart op is two announces, each
// its own timed op, so the cursor into the generated list advances on the
// second half.
func (b *trackerBench) op(i int, acc *accum) (time.Duration, error) {
	if i == 0 {
		b.cursor, b.half = 0, false
		if acc != nil {
			b.trk.SetMetrics(obs.Active())
		}
	}
	o := b.ops[b.cursor]
	s := b.swarms[o.swarm]
	m := s.members[o.member]
	event, left := "", m.left
	switch {
	case o.kind == 'c':
		event, left = "completed", 0
	case o.kind == 's' && !b.half:
		event = "stopped"
	case o.kind == 's':
		event, left = "started", trkContentBytes // a restarted member is a leecher again
	}
	if o.kind == 's' {
		b.half = !b.half
	}
	if !b.half {
		b.cursor++
	}
	d, peers, err := b.announce(s, m, event, left)
	acc.add("count.peers_returned", float64(peers))
	return d, err
}

// announce sends one announce for member m with the given left, applies
// it to the benchmark's own tally, and checks the reply against it.
func (b *trackerBench) announce(s *trkSwarm, m *trkMember, event string, left int64) (time.Duration, int, error) {
	key := addrKey(m.ip, m.port)
	if s.present[key] && m.left == 0 {
		s.complete--
	}
	delete(s.present, key)
	m.left = left
	if event != "stopped" {
		s.present[key] = true
		if left == 0 {
			s.complete++
		}
	}
	q := m.query + "&left=" + strconv.FormatInt(left, 10)
	if event != "" {
		q += "&event=" + event
	}
	start := time.Now()
	body, err := b.send(q)
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	var peers int
	err = untimed(func() (err error) {
		peers, err = checkAnnounce(body, s, key)
		return err
	})
	return d, peers, err
}

func (b *trackerBench) send(query string) ([]byte, error) {
	if b.handler != nil {
		req := httptest.NewRequest(http.MethodGet, "/announce?"+query, nil)
		rec := httptest.NewRecorder()
		b.handler.ServeHTTP(rec, req)
		return rec.Body.Bytes(), nil
	}
	resp, err := b.http.Get(b.base + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("announce: HTTP %d", resp.StatusCode)
	}
	return body, nil
}

func addrKey(ip [4]byte, port uint16) [6]byte {
	var k [6]byte
	copy(k[:4], ip[:])
	binary.BigEndian.PutUint16(k[4:], port)
	return k
}

// checkAnnounce decodes a reply with the benchmark's own bencode and
// compact-peer parser and checks it against the tally: the seed and
// leecher counts, the peer count min(numwant, members - 1), and that every
// returned address is a registered member other than the requester,
// listed once.
func checkAnnounce(body []byte, s *trkSwarm, self [6]byte) (int, error) {
	d, err := decodeDict(body)
	if err != nil {
		return 0, checkf("announce reply: %v", err)
	}
	if f, ok := d.strs["failure reason"]; ok {
		return 0, checkf("announce refused: %s", f)
	}
	members := len(s.present)
	if d.ints["complete"] != int64(s.complete) || d.ints["incomplete"] != int64(members-s.complete) {
		return 0, checkf("complete/incomplete %d/%d, tally %d/%d",
			d.ints["complete"], d.ints["incomplete"], s.complete, members-s.complete)
	}
	peers := d.strs["peers"]
	if len(peers)%6 != 0 {
		return 0, checkf("compact peers of %d bytes", len(peers))
	}
	others := members
	if s.present[self] {
		others--
	}
	n := len(peers) / 6
	if want := min(trkNumWant, others); n != want {
		return n, checkf("%d peers returned, want %d", n, want)
	}
	seen := make(map[[6]byte]bool, n)
	for i := 0; i < n; i++ {
		var k [6]byte
		copy(k[:], peers[6*i:6*i+6])
		switch {
		case k == self:
			return n, checkf("reply lists the requester")
		case !s.present[k]:
			return n, checkf("reply lists %v, not a registered member", net.IP(k[:4]))
		case seen[k]:
			return n, checkf("reply lists %v twice", net.IP(k[:4]))
		}
		seen[k] = true
	}
	return n, nil
}

// bdict is a decoded bencode dictionary of integers and byte strings;
// nested values are skipped.
type bdict struct {
	ints map[string]int64
	strs map[string]string
}

func decodeDict(b []byte) (bdict, error) {
	d := bdict{ints: map[string]int64{}, strs: map[string]string{}}
	if len(b) < 2 || b[0] != 'd' {
		return d, errors.New("not a dictionary")
	}
	p := 1
	for p < len(b) && b[p] != 'e' {
		key, np, err := decodeString(b, p)
		if err != nil {
			return d, err
		}
		p = np
		if p >= len(b) {
			return d, errors.New("truncated")
		}
		switch {
		case b[p] == 'i':
			end := indexByte(b, p, 'e')
			if end < 0 {
				return d, errors.New("unterminated integer")
			}
			v, err := strconv.ParseInt(string(b[p+1:end]), 10, 64)
			if err != nil {
				return d, err
			}
			d.ints[key] = v
			p = end + 1
		case b[p] >= '0' && b[p] <= '9':
			v, np, err := decodeString(b, p)
			if err != nil {
				return d, err
			}
			d.strs[key] = v
			p = np
		default:
			return d, fmt.Errorf("unexpected value type %q", b[p])
		}
	}
	if p != len(b)-1 {
		return d, errors.New("trailing bytes")
	}
	return d, nil
}

func decodeString(b []byte, p int) (string, int, error) {
	colon := indexByte(b, p, ':')
	if colon < 0 {
		return "", 0, errors.New("bad string length")
	}
	n, err := strconv.Atoi(string(b[p:colon]))
	if err != nil || n < 0 || colon+1+n > len(b) {
		return "", 0, errors.New("bad string length")
	}
	return string(b[colon+1 : colon+1+n]), colon + 1 + n, nil
}

func indexByte(b []byte, from int, c byte) int {
	for i := from; i < len(b); i++ {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func (b *trackerBench) check() error { return nil }

func (b *trackerBench) extras(p pass) map[string]float64 {
	return map[string]float64{"op_ms_p99": ms(percentileDur(p.lat, 99))}
}

// traced sends the announce mix in-process to a fresh tracker's handler
// through an httptest recorder — no socket — and records the handler's
// median latency per announce.
func (b *trackerBench) traced(acc *accum, plain pass) error {
	b.resetState()
	b.trk = tracker.NewServer(0)
	b.handler = b.trk.Handler()
	defer func() { b.handler = nil }()
	if err := b.populate(); err != nil {
		return err
	}
	lat := make([]time.Duration, 0, b.nAnn)
	for i := 0; i < b.nAnn; i++ {
		d, err := b.op(i, nil)
		if err != nil {
			return fmt.Errorf("in-process announce %d: %w", i, err)
		}
		lat = append(lat, d)
	}
	acc.put("span.handler_ms_p50", ms(percentileDur(lat, 50)))
	return nil
}

func (b *trackerBench) close() { b.teardown() }
