package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// servingWorkload is one of the three workloads that drive a real
// `dwqa serve` over loopback HTTP.
type servingWorkload struct {
	name   string
	limit  time.Duration // latency limit a correct /ask reply must meet for slo_ok_share
	warmup int           // cold workloads: requests sent before the window, not timed
	// generate returns the run's request sequence: reqs, and for the hot
	// workload the order in which they are drawn.
	generate func(m *corpusModel, seed int64) ([]request, []uint16)
	feeds    bool
	// guards judges the timed window's counters; each string returned
	// invalidates the run.
	guards func(w *window) []string
}

// hotSetSeed fixes the hot set and its Zipf ranks: the workload seed
// only chooses the order the set is drawn in, so every seed sends the
// same mix of cheap and expensive cached replies.
const hotSetSeed = 20100322

var servingWorkloads = []servingWorkload{
	{
		name: "factoid_cold", limit: 10 * time.Millisecond, warmup: 500,
		generate: func(m *corpusModel, seed int64) ([]request, []uint16) { return m.factoidCold(seed, 60_000), nil },
		guards: func(w *window) []string {
			var out []string
			if w.hitShare > 0.05 {
				out = append(out, fmt.Sprintf("cache hit share %.3f > 0.05: the questions are not unique", w.hitShare))
			}
			if s := w.stageShare("ir_search"); s < 0.5 {
				out = append(out, fmt.Sprintf("ir_search is %.3f of stage time, < 0.5: retrieval no longer dominates this workload", s))
			}
			return out
		},
	},
	{
		name: "analytic_cold", limit: 10 * time.Millisecond, warmup: 500,
		generate: func(m *corpusModel, seed int64) ([]request, []uint16) { return m.analyticCold(seed, 120_000), nil },
		guards: func(w *window) []string {
			var out []string
			if n := w.delta(stageCount("ir_search")); n > 0 {
				out = append(out, fmt.Sprintf("%.0f ir_search observations: a question took the factoid path", n))
			}
			if w.hitShare > 0.2 {
				out = append(out, fmt.Sprintf("cache hit share %.3f > 0.2", w.hitShare))
			}
			if s := w.stageShare("olap_execute"); s < 0.5 {
				out = append(out, fmt.Sprintf("olap_execute is %.3f of stage time, < 0.5: the warehouse no longer dominates this workload", s))
			}
			return out
		},
	},
	{
		name: "hot_mixed_feed", limit: 2 * time.Millisecond, feeds: true,
		generate: func(m *corpusModel, seed int64) ([]request, []uint16) {
			set := m.hotSet(hotSetSeed)
			return set, hotDraws(seed, len(set), hotSequence)
		},
		guards: func(w *window) []string {
			var out []string
			if w.hitShare < 0.85 {
				out = append(out, fmt.Sprintf("cache hit share %.3f < 0.85: the hot set no longer fits the cache", w.hitShare))
			}
			if n, want := int(w.delta("dwqa_generation_total")), len(harvestQuestions()); n != want || w.rec.feedsOK != want {
				out = append(out, fmt.Sprintf("%d feeds committed, %d acknowledged, want %d", n, w.rec.feedsOK, want))
			}
			return out
		},
	},
}

func stageSum(stage string) string {
	return fmt.Sprintf(`dwqa_stage_duration_seconds_sum{stage=%q}`, stage)
}

func stageCount(stage string) string {
	return fmt.Sprintf(`dwqa_stage_duration_seconds_count{stage=%q}`, stage)
}

// requestStages are the stages a request's time is attributed to by the
// server's own tracer.
var requestStages = []string{"cache_lookup", "nlp_analyse", "ir_search", "qa_extract", "olap_compile", "olap_execute"}

// window is everything observed about one timed stretch of load.
type window struct {
	rec           *recorder
	start         time.Time          // when the first request was sent
	wall          time.Duration      // until the last reply arrived
	before, after map[string]float64 // /metrics scrapes either side of the window
	cpuAt         []float64          // child user+sys seconds at each whole second of the window, and at its end
	loadgenCPU    float64            // this process's user+sys seconds inside the window
	dials         int64
	walBytes      int64 // growth of wal.log inside the window
	hitShare      float64
}

func (w *window) delta(series string) float64 { return w.after[series] - w.before[series] }

func (w *window) stageTotal() float64 {
	total := 0.0
	for _, st := range requestStages {
		total += w.delta(stageSum(st))
	}
	return total
}

func (w *window) stageShare(stage string) float64 {
	if total := w.stageTotal(); total > 0 {
		return w.delta(stageSum(stage)) / total
	}
	return 0
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func fileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

// measure runs one timed window against s. The server is scraped only
// either side of the window; inside it the only extra work is one read
// of /proc/<pid>/stat per second.
func measure(s *server, dataDir string, p *phase, dials func() int64) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = s.scrape(); err != nil {
		return nil, err
	}
	wal := filepath.Join(dataDir, "wal.log")
	walBefore := fileSize(wal)

	seconds := int(p.window / time.Second)
	sampled := make(chan error, 1)
	begin := time.Now()
	go func() {
		for k := 0; k < max(seconds, 1); k++ {
			time.Sleep(time.Until(begin.Add(time.Duration(k) * time.Second)))
			cpu, err := s.cpuSeconds()
			if err != nil {
				sampled <- err
				return
			}
			w.cpuAt = append(w.cpuAt, cpu)
		}
		sampled <- nil
	}()
	self0 := selfCPUSeconds()
	w.rec, w.start, w.wall = p.run()
	w.loadgenCPU = selfCPUSeconds() - self0
	if err := <-sampled; err != nil {
		return nil, err
	}
	cpu, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	w.cpuAt = append(w.cpuAt, cpu)
	if w.after, err = s.scrape(); err != nil {
		return nil, err
	}
	w.walBytes = fileSize(wal) - walBefore
	w.dials = dials()
	if hits, misses := w.delta("dwqa_cache_hits_total"), w.delta("dwqa_cache_misses_total"); hits+misses > 0 {
		w.hitShare = hits / (hits + misses)
	}
	return w, nil
}

// timings are a window's timings twice: as measured, over the whole
// window, and on the reference clock (probe.go), for which the window
// is cut into one-second slices and everything timed in a slice is
// scaled by the ping round trip measured during that slice. Every slice
// counts; the last one runs until the last reply has arrived.
type timings struct {
	raw, lat   []int64 // latency of every /ask reply, as measured and on the reference clock, sorted
	ok, within int     // correct replies; those inside the latency limit on the reference clock
	seconds    float64 // length of the window on the reference clock
	cpu        float64 // child CPU seconds inside the window on the reference clock
	probe      time.Duration
}

func (w *window) timings(pr *probe, limit time.Duration) timings {
	n := len(w.cpuAt) - 1
	t := timings{raw: sortedCopy(w.rec.askNs)}
	t.probe, _ = pr.median(w.start, w.start.Add(w.wall))
	scale := make([]float64, n)
	for k := range scale {
		from, to := w.start.Add(time.Duration(k)*time.Second), w.start.Add(time.Duration(k+1)*time.Second)
		length := time.Second
		if k == n-1 {
			to = w.start.Add(w.wall)
			length = w.wall - time.Duration(k)*time.Second
		}
		scale[k] = pr.scale(from, to)
		t.seconds += length.Seconds() * scale[k]
		t.cpu += (w.cpuAt[k+1] - w.cpuAt[k]) * scale[k]
	}
	for i, end := range w.rec.askEnd {
		k := min(int(end/int64(time.Second)), n-1)
		scaled := int64(float64(w.rec.askNs[i]) * scale[k])
		t.lat = append(t.lat, scaled)
		if w.rec.askOK[i] {
			t.ok++
			if scaled <= int64(limit) {
				t.within++
			}
		}
	}
	t.lat = sortedCopy(t.lat)
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// served is a server that has been set up for a workload: booted on its
// own copy of the seeded directory and warmed up.
type served struct {
	srv     *server
	dataDir string
	clients []*loadClient
	dials   func() int64
	began   time.Time
	setupS  float64 // copy + boot + warm-up
}

func (sv *served) close(h *harness) {
	h.stop(sv.srv.proc)
	for _, c := range sv.clients {
		c.close()
	}
}

// setUp does what stands between a seeded directory and the first timed
// request: copy the directory, boot `dwqa serve` on the copy, warm it
// up (cold workloads: wl.warmup requests from the head of the sequence;
// hot workload: each hot question once, so the window starts with a
// full cache).
func (h *harness) setUp(wl servingWorkload, corp *corpus, model *corpusModel, reqs []request, src *source) (*served, error) {
	sv := &served{dataDir: filepath.Join(h.tmpDir, wl.name+"-data")}
	if err := os.RemoveAll(sv.dataDir); err != nil {
		return nil, err
	}
	sv.began = time.Now()
	if _, err := copyDir(corp.Dir, sv.dataDir); err != nil {
		return nil, err
	}
	var err error
	if sv.srv, err = h.startServer(sv.dataDir); err != nil {
		return nil, err
	}
	var dials *atomic.Int64
	sv.clients, dials = newLoadClients(loadClients)
	sv.dials = dials.Load
	warm := &phase{base: sv.srv.base, clients: sv.clients, model: model, src: src, count: wl.warmup}
	if src.order != nil {
		warm.src, warm.count = newSource(reqs, nil), len(reqs)
	}
	rec, _, _ := warm.run()
	sv.setupS = time.Since(sv.began).Seconds()
	if n := rec.failed(); n > 0 {
		sv.close(h)
		return nil, fmt.Errorf("%d of %d warm-up requests failed: %s%s", n, rec.attempted,
			rec.firstWhy[verdictWrong], rec.firstWhy[verdictError])
	}
	return sv, nil
}

// scaled returns the length of [from, from+seconds] on the reference
// clock (probe.go).
func (h *harness) scaled(from time.Time, seconds float64) float64 {
	return seconds * h.probe.scale(from, from.Add(time.Duration(seconds*float64(time.Second))))
}

// runServing runs one serving workload end to end: set up, measure,
// check, tear down.
func (h *harness) runServing(wl servingWorkload, seed int64, seconds int, traced bool) (*result, error) {
	corp, err := h.corpusCache()
	if err != nil {
		return nil, err
	}
	model := newCorpusModel(corp.Summary.PagesSeen)
	reqs, order := wl.generate(model, seed)
	src := newSource(reqs, order)

	repeats := h.setUps
	if traced {
		repeats = 1
	}
	var sv *served
	var setups, boots, rawSetups, rawBoots []float64
	for i := 0; i < repeats; i++ {
		if sv != nil {
			sv.close(h)
		}
		src.cursor.Store(0) // every set-up, and so the window, starts from the same place in the sequence
		if sv, err = h.setUp(wl, corp, model, reqs, src); err != nil {
			return nil, err
		}
		rawSetups, rawBoots = append(rawSetups, sv.setupS), append(rawBoots, sv.srv.bootS)
		setups, boots = append(setups, h.scaled(sv.began, sv.setupS)), append(boots, h.scaled(sv.srv.execAt, sv.srv.bootS))
	}
	defer func() { sv.close(h) }()
	booted, err := sv.srv.health()
	if err != nil {
		return nil, err
	}
	if booted.Passages != corp.Summary.Passages {
		return nil, fmt.Errorf("server reports %d passages, the seeder wrote %d", booted.Passages, corp.Summary.Passages)
	}

	ph := &phase{base: sv.srv.base, clients: sv.clients, model: model, src: src, window: time.Duration(seconds) * time.Second}
	if traced {
		// A traced run splits its time between the server and the
		// in-process replay.
		ph.window /= 2
	}
	if wl.feeds {
		ph.feeds = harvestQuestions()
	}
	win, err := measure(sv.srv, sv.dataDir, ph, sv.dials)
	if err != nil {
		return nil, err
	}
	rec := win.rec

	res := &result{Workload: wl.name, Seed: seed, Traced: traced, Attempted: rec.attempted, Failed: rec.failed(), Metrics: metrics{}}
	for _, why := range rec.firstWhy {
		if why != "" {
			res.Invalid = append(res.Invalid, "first failure: "+why)
		}
	}
	if win.dials > loadClients {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d connections opened by %d clients: keep-alive is not holding", win.dials, loadClients))
	}
	res.Guards = wl.guards(win)
	loadgenShare := ratio(win.loadgenCPU, win.wall.Seconds()*float64(runtime.NumCPU()))
	if loadgenShare > 0.6 {
		res.Guards = append(res.Guards, fmt.Sprintf("the load generator used %.2f of the CPU, > 0.6: the window measured the harness", loadgenShare))
	}

	after, err := sv.srv.health()
	if err != nil {
		return nil, err
	}
	rss, err := sv.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(sv.dataDir)
	if err != nil {
		return nil, err
	}

	m := res.Metrics
	tm := win.timings(h.probe, wl.limit)
	asks := len(tm.raw)
	m.set("setup_s", median(setups), len(setups))
	m.set("boot_s", median(boots), len(boots))
	m.set("throughput_ops_s", ratio(float64(tm.ok), tm.seconds), tm.ok)
	m.set("latency_p50_ms", ms(percentile(tm.lat, 50)), asks)
	m.set("latency_p90_ms", ms(percentile(tm.lat, 90)), asks)
	m.set("latency_tail_ms", ms(tailLatency(tm.lat)), asks)
	m.set("slo_ok_share", ratio(float64(tm.within), float64(asks)), asks)
	m.set("exact_answer_share", ratio(float64(rec.byVerdict[verdictOK]-rec.inexact), float64(rec.attempted)), rec.attempted)
	m.set("cpu_ms_per_op", 1000*ratio(tm.cpu, float64(rec.attempted)), rec.attempted)
	// The same timings as measured, over the whole window.
	m.set("raw.setup_s", median(rawSetups), len(rawSetups))
	m.set("raw.boot_s", median(rawBoots), len(rawBoots))
	m.set("raw.throughput_ops_s", ratio(float64(tm.ok), win.wall.Seconds()), tm.ok)
	m.set("raw.latency_p50_ms", ms(percentile(tm.raw, 50)), asks)
	m.set("raw.latency_p90_ms", ms(percentile(tm.raw, 90)), asks)
	m.set("raw.latency_tail_ms", ms(tailLatency(tm.raw)), asks)
	m.set("raw.latency_p99_ms", ms(percentile(tm.raw, 99)), asks)
	m.set("raw.cpu_ms_per_op", 1000*ratio(win.cpuAt[len(win.cpuAt)-1]-win.cpuAt[0], float64(rec.attempted)), rec.attempted)
	m.set("harness.probe_us", float64(tm.probe)/1e3, len(win.cpuAt)-1)
	m.set("peak_rss_mb", rss, 1)
	m.set("disk_bytes_per_passage", ratio(float64(disk), float64(after.Passages)), 1)
	m.set("loadgen.cpu_share", loadgenShare, 1)
	servingLayerMetrics(m, win)

	if wl.feeds {
		reboot, why, err := h.rebootCheck(sv.srv, sv.dataDir, booted, after, rec)
		if err != nil {
			return nil, err
		}
		sv.srv = reboot
		if why != "" {
			res.Invalid = append(res.Invalid, why)
		}
		m.set("store.reboot_after_feeds_ms", 1000*reboot.bootS, 1)
	}
	if traced {
		h.stop(sv.srv.proc)
		if err := h.traceServing(wl, corp, src, time.Duration(seconds)*time.Second/2, m); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Invalid) == 0 && len(res.Guards) == 0
	return res, nil
}

// servingLayerMetrics derives the per-layer metrics that come from the
// server's own instruments (scraped either side of the window), the
// reply fields and process accounting.
func servingLayerMetrics(m metrics, w *window) {
	rec := w.rec
	asks := len(rec.askNs)
	misses := w.delta("dwqa_cache_misses_total")
	for layer, stage := range map[string]string{
		"nlp": "nlp_analyse", "ir": "ir_search", "qa": "qa_extract", "nl2olap": "olap_compile", "dw": "olap_execute",
	} {
		m.set(layer+".stage_ms_per_miss", 1000*ratio(w.delta(stageSum(stage)), misses), int(w.delta(stageCount(stage))))
	}
	var askSeconds float64
	for _, ns := range rec.askNs {
		askSeconds += float64(ns) / 1e9
	}
	m.set("engine.cache_hit_share", w.hitShare, asks)
	m.set("engine.cache_evicted", w.delta("dwqa_cache_evicted_total"), 1)
	m.set("engine.queue_wait_ms", 1000*ratio(w.delta("dwqa_gate_queue_wait_seconds_sum"), float64(rec.attempted)), int(w.delta("dwqa_gate_queue_wait_seconds_count")))
	m.set("engine.shed_share", ratio(w.delta("dwqa_shed_total"), float64(rec.attempted)), rec.attempted)
	m.set("engine.timeout_share", ratio(w.delta("dwqa_timeouts_total"), float64(rec.attempted)), rec.attempted)
	m.set("engine.stage_unattributed_share", 1-ratio(w.stageTotal(), askSeconds), asks)
	m.set("engine.feeds_committed", w.delta("dwqa_generation_total"), len(rec.feedNs))
	m.set("engine.feed_ms_p50", ms(percentile(sortedCopy(rec.feedNs), 50)), len(rec.feedNs))
	m.set("qa.candidates_per_answer", ratio(float64(rec.candidates), float64(rec.factoidAsks)), rec.factoidAsks)
	m.set("qa.passages_per_answer", ratio(float64(rec.passages), float64(rec.factoidAsks)), rec.factoidAsks)
	m.set("dw.rows_scanned_per_result_row", ratio(float64(rec.scanned), float64(rec.resultRows)), rec.analyticAsks)
	fsyncs := w.delta("dwqa_wal_fsync_seconds_count")
	m.set("store.wal_fsync_ms", 1000*ratio(w.delta("dwqa_wal_fsync_seconds_sum"), fsyncs), int(fsyncs))
	m.set("store.wal_bytes_per_row", ratio(float64(w.walBytes), float64(rec.rowsLoaded)), rec.rowsLoaded)
	m.set("harness.error_share", ratio(float64(rec.byVerdict[verdictError]), float64(rec.attempted)), rec.attempted)
	m.set("harness.wrong_answer_share", ratio(float64(rec.byVerdict[verdictWrong]), float64(rec.attempted)), rec.attempted)
}

// rebootCheck is the durability check after the feeds: kill the server
// (no graceful shutdown, so nothing is flushed on the way out), boot a
// new one on the same directory and require every acknowledged row to
// be there, replayed from the write-ahead log.
func (h *harness) rebootCheck(srv *server, dataDir string, booted, before health, rec *recorder) (*server, string, error) {
	h.stop(srv.proc)
	reboot, err := h.startServer(dataDir)
	if err != nil {
		return srv, "", fmt.Errorf("rebooting on the fed directory: %w", err)
	}
	after, err := reboot.health()
	if err != nil {
		return reboot, "", err
	}
	switch {
	case before.FactRows != booted.FactRows+rec.rowsLoaded:
		return reboot, fmt.Sprintf("fact_rows %d before the kill, want %d + %d acknowledged", before.FactRows, booted.FactRows, rec.rowsLoaded), nil
	case after.FactRows != before.FactRows:
		return reboot, fmt.Sprintf("fact_rows %d after the reboot, %d acknowledged before the kill", after.FactRows, before.FactRows), nil
	case after.WALReplayed != rec.feedsLoading:
		return reboot, fmt.Sprintf("wal_replayed %d after the reboot, want one record per acknowledged feed that loaded rows (%d)", after.WALReplayed, rec.feedsLoading), nil
	}
	return reboot, "", nil
}
