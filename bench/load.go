package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loadClients is the closed loop's width: the box has two cores, and a
// caller of /ask waits for its reply before asking again.
const loadClients = 2

// recorder accumulates what one client saw. Each client owns one, so
// the measured loop takes no lock; merge folds them after the run.
type recorder struct {
	attempted int
	byVerdict [3]int
	askNs     []int64   // client-side latency of every /ask reply, correct or not
	askEnd    []int64   // when each of those replies arrived, since the phase began
	askOK     []bool    // whether each of those replies was correct
	feedNs    []int64   // client-side latency of every /harvest reply
	inexact   int       // answered, but for another day of the month than asked
	firstWhy  [3]string // first failure of each class

	factoidAsks, candidates, passages int
	analyticAsks, resultRows, scanned int
	feedsOK, feedsLoading, rowsLoaded int // acknowledged feeds, those that loaded new rows, the rows
}

func (r *recorder) add(req request, c checked, end, lat time.Duration) {
	r.attempted++
	r.byVerdict[c.verdict]++
	if c.verdict != verdictOK && r.firstWhy[c.verdict] == "" {
		r.firstWhy[c.verdict] = c.why
	}
	if req.Kind == kindHarvest {
		r.feedNs = append(r.feedNs, int64(lat))
		if c.verdict == verdictOK {
			r.feedsOK++
			r.rowsLoaded += c.loaded
			if c.loaded > 0 {
				r.feedsLoading++
			}
		}
		return
	}
	r.askNs = append(r.askNs, int64(lat))
	r.askEnd = append(r.askEnd, int64(end))
	r.askOK = append(r.askOK, c.verdict == verdictOK)
	if c.verdict != verdictOK {
		return
	}
	if c.inexact {
		r.inexact++
	}
	if req.Kind.factoid() {
		r.factoidAsks++
		r.candidates += c.candidates
		r.passages += c.passages
	} else {
		r.analyticAsks++
		r.resultRows += c.resultRows
		r.scanned += c.scannedRows
	}
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	for v := range r.byVerdict {
		r.byVerdict[v] += o.byVerdict[v]
		if r.firstWhy[v] == "" {
			r.firstWhy[v] = o.firstWhy[v]
		}
	}
	r.askNs = append(r.askNs, o.askNs...)
	r.askEnd = append(r.askEnd, o.askEnd...)
	r.askOK = append(r.askOK, o.askOK...)
	r.feedNs = append(r.feedNs, o.feedNs...)
	r.inexact += o.inexact
	r.factoidAsks += o.factoidAsks
	r.candidates += o.candidates
	r.passages += o.passages
	r.analyticAsks += o.analyticAsks
	r.resultRows += o.resultRows
	r.scanned += o.scanned
	r.feedsOK += o.feedsOK
	r.feedsLoading += o.feedsLoading
	r.rowsLoaded += o.rowsLoaded
}

func (r *recorder) failed() int { return r.byVerdict[verdictWrong] + r.byVerdict[verdictError] }

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p % of the
// samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLatency is the tail the benchmark bounds: p95 when at least ten
// samples lie beyond it, else p90. On this box p99 of the cold workloads
// swings by 30 % between runs of the same binary (collector cycles on
// two busy cores), wider than any bound could be; it is reported
// unbounded as raw.latency_p99_ms.
func tailLatency(sorted []int64) int64 {
	if len(sorted) >= 200 {
		return percentile(sorted, 95)
	}
	return percentile(sorted, 90)
}

func sortedCopy(ns []int64) []int64 {
	out := append([]int64(nil), ns...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// askBody is the JSON body of one /ask or /harvest request.
func askBody(r request) []byte {
	var v any = map[string]string{"question": r.Question}
	if r.Kind == kindHarvest {
		v = map[string][]string{"questions": {r.Question}}
	}
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings always marshal
	}
	return buf
}

// source hands the clients the run's fixed request sequence; next is
// safe for concurrent use. A sequence that is spent starts over: on the
// cold workloads that turns into cache hits, which their validity
// guards catch.
type source struct {
	reqs   []request
	bodies [][]byte
	order  []uint16 // when set, the sequence is reqs[order[i]]
	cursor atomic.Int64
}

func newSource(reqs []request, order []uint16) *source {
	s := &source{reqs: reqs, order: order, bodies: make([][]byte, len(reqs))}
	for i, r := range reqs {
		s.bodies[i] = askBody(r)
	}
	return s
}

// at returns the i-th request of the sequence and its body.
func (s *source) at(i int) (request, []byte) {
	if s.order != nil {
		i = int(s.order[i%len(s.order)])
	}
	i %= len(s.reqs)
	return s.reqs[i], s.bodies[i]
}

func (s *source) next() (request, []byte) { return s.at(int(s.cursor.Add(1) - 1)) }

// phase is one stretch of closed-loop load.
type phase struct {
	base    string
	clients []*loadClient
	model   *corpusModel
	src     *source
	// Exactly one of count and window bounds the phase: count sends that
	// many requests (warm-up), window sends until the time is up.
	count  int
	window time.Duration
	// feeds are sent as POST /harvest from client 0, evenly spaced
	// through the window.
	feeds []request
}

// run drives the phase and returns what the clients saw, when it began
// and how long it took.
func (p *phase) run() (*recorder, time.Time, time.Duration) {
	recs := make([]*recorder, len(p.clients))
	var sent atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(p.window)
	for ci, client := range p.clients {
		rec := &recorder{}
		recs[ci] = rec
		feeds := p.feeds
		if ci != 0 {
			feeds = nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fed := 0
			for {
				now := time.Now()
				if p.count == 0 && !now.Before(deadline) {
					return
				}
				// Feed i is due at (i + ½)/n of the window.
				if fed < len(feeds) && now.Sub(start) >= p.window*time.Duration(2*fed+1)/time.Duration(2*len(feeds)) {
					p.send(client, rec, start, feeds[fed], askBody(feeds[fed]))
					fed++
					continue
				}
				if p.count > 0 && sent.Add(1) > int64(p.count) {
					return
				}
				req, body := p.src.next()
				p.send(client, rec, start, req, body)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	total := recs[0]
	for _, r := range recs[1:] {
		total.merge(r)
	}
	return total, start, wall
}

func (p *phase) send(c *loadClient, rec *recorder, began time.Time, req request, body []byte) {
	path := "/ask"
	if req.Kind == kindHarvest {
		path = "/harvest"
	}
	start := time.Now()
	status, reply, err := c.post(p.base+path, bytes.NewReader(body))
	end := time.Now()
	verdict := bad(verdictError, "%q: %v", req.Question, err)
	if err == nil {
		verdict = p.model.check(req, status, reply)
	}
	rec.add(req, verdict, end.Sub(began), end.Sub(start))
}
