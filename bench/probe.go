package main

import (
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// The box the benchmark runs on is a shared host, and its speed swings:
// the same binary answering the same cached requests ran at 6 400
// requests a second in one run and 2 600 in another a quarter of an hour
// later, and used proportionally more CPU time doing it. The swings last
// from under a second to tens of minutes, so neither a longer window nor
// a median over slices removes them: ten-run spreads of wall-clock
// timings were 3–8 % in a quiet spell and 25–73 % in a noisy one, and
// medians of two ten-run sets of one binary differed by up to 2×. The
// pipeline refuses a benchmark whose spreads exceed its bounds, and
// bounds may not exceed 25 %.
//
// What does track the swings is a reference request measured at the
// same instants. The harness serves a trivial echo handler of its own
// (standard library only, nothing from the tree under test) and pings
// it about 500 times a second for as long as anything is being timed. A
// ping's round trip is loopback TCP, the scheduler and a few syscalls.
// A fixed computation timed at the same instants does not track the
// swings (its time stayed within 0.3 % while request latency moved by
// a fifth): what swings is the cost of wake-ups and kernel work under the
// hypervisor, which a ping pays as a request does.
//
// The bounded end-to-end timings are therefore reported on a reference
// clock: a duration measured while the median ping took E is multiplied
// by probeNominal ÷ E. probeNominal is about the ping's round trip on
// this box when the host is quiet and a workload is running, so reported
// numbers stay close to quiet-machine wall-clock values. Nothing is
// selected or dropped: every slice of a window counts, scaled by its own
// pings. The same timings as measured are reported beside them as the
// per-layer metrics raw.*, and harness.probe_us is the run's median
// ping.
//
// What this costs: the pinger shares the two cores with the server, so
// a change that makes the server keep more threads runnable lengthens
// the pings and flatters the scaled timings (and the other way round).
// In the closed loop the server always has exactly two requests in
// flight, which bounds the effect for changes that only make a request
// cheaper; a change to the server's parallelism must be judged on the
// raw.* metrics of alternating runs as well (README.md, Noise).

// probeNominal is the reference round trip all timings are scaled to.
const probeNominal = 450 * time.Microsecond

// probeInterval is the pause between pings: about 500 pings a second
// cost a few percent of one core.
const probeInterval = 2 * time.Millisecond

type probe struct {
	ln   net.Listener
	stop chan struct{}
	done chan struct{}

	mu  sync.Mutex
	at  []time.Time     // when each ping returned, ascending
	rtt []time.Duration // its round trip
}

// startProbe starts the echo server and the pinger.
func startProbe() (*probe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &probe{ln: ln, stop: make(chan struct{}), done: make(chan struct{})}
	// The handler also chases 2 048 dependent loads through a 16 MiB
	// table, most of them cache misses, so that a ping slows down with
	// the memory system as well as with the scheduler: retrieval over a
	// 100 000-passage index is bound by both.
	table := make([]uint32, 4<<20)
	for i := range table {
		table[i] = uint32((uint64(i)*2654435761 + 12345) % uint64(len(table)))
	}
	go func() {
		_ = http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			at := uint32(len(r.URL.Path))
			for i := 0; i < 2048; i++ {
				at = table[at]
			}
			_, _ = w.Write([]byte{'0' + byte(at%10)})
		}))
	}()
	go p.ping("http://" + ln.Addr().String() + "/")
	return p, nil
}

func (p *probe) ping(url string) {
	defer close(p.done)
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	for {
		select {
		case <-p.stop:
			return
		case <-time.After(probeInterval):
		}
		start := time.Now()
		resp, err := client.Post(url, "application/json", strings.NewReader(`{"question":"ping"}`))
		if err != nil {
			continue // the listener is closing
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		end := time.Now()
		p.mu.Lock()
		p.at = append(p.at, end)
		p.rtt = append(p.rtt, end.Sub(start))
		p.mu.Unlock()
	}
}

func (p *probe) close() {
	close(p.stop)
	<-p.done
	_ = p.ln.Close()
}

// probeMinSamples is how many pings a scale factor must rest on; a
// shorter stretch is widened to its neighbourhood.
const probeMinSamples = 25

// median returns the median round trip of the pings that returned in
// [from, to], widening the stretch on both sides until it holds
// probeMinSamples, and how many pings it rests on.
func (p *probe) median(from, to time.Time) (time.Duration, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := sort.Search(len(p.at), func(i int) bool { return !p.at[i].Before(from) })
	hi := sort.Search(len(p.at), func(i int) bool { return p.at[i].After(to) })
	for hi-lo < probeMinSamples && (lo > 0 || hi < len(p.at)) {
		if lo > 0 {
			lo--
		}
		if hi < len(p.at) {
			hi++
		}
	}
	if hi <= lo {
		return 0, 0
	}
	ns := make([]int64, hi-lo)
	for i, d := range p.rtt[lo:hi] {
		ns[i] = int64(d)
	}
	return time.Duration(percentile(sortedCopy(ns), 50)), hi - lo
}

// scale returns the factor that puts a duration measured in [from, to]
// on the reference machine's clock; 1 when no ping has returned yet.
func (p *probe) scale(from, to time.Time) float64 {
	if m, n := p.median(from, to); n > 0 && m > 0 {
		return float64(probeNominal) / float64(m)
	}
	return 1
}
