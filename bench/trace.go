package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/engine"
	"dwqa/internal/etl"
	"dwqa/internal/ir"
	"dwqa/internal/nl2olap"
	"dwqa/internal/nlp"
	"dwqa/internal/qa"
	"dwqa/internal/store"
	"dwqa/internal/webcorpus"
)

// The traced run measures layers from outside the program: one process,
// one goroutine, a span around each call into a layer's public
// function. Spans inside the program are a later change. A request is
// replayed once per layer, outermost first — ServeHTTP, then
// Engine.Ask, then the module under it, then the function under that —
// so a layer's self time is its call minus the call one level in. The
// inner calls run on warmer caches than the outer ones, which the self
// times therefore overstate slightly; README.md says so.

// span is one timed call into a layer.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: no parent
	Req     int    `json:"req"`    // replayed request the span belongs to; -1: set-up
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// do times fn as a span and returns its id and duration.
func (t *tracer) do(name string, req, parent int, fn func()) (int, time.Duration) {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, StartNs: int64(start), EndNs: int64(end)})
	return len(t.spans) - 1, end - start
}

// derived records a span whose duration the callee reported (the
// Timings a Timed entry point returns) rather than one the tracer
// clocked; it is laid at offset inside its parent.
func (t *tracer) derived(name string, req, parent int, offset, d time.Duration) {
	start := t.spans[parent].StartNs + int64(offset)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, StartNs: start, EndNs: start + int64(d)})
}

// report is trace.json: the spans and the per-layer table.
func (t *tracer) report(workload string, layer metrics) any {
	return struct {
		Workload string   `json:"workload"`
		Layers   metrics  `json:"layers"`
		Spans    []span   `json:"spans"`
		Calls    []string `json:"calls"`
	}{workload, layer, t.spans, tracedCalls}
}

// tracedCalls are the public functions the traced run calls, so a later
// rename is a one-line follow-up here (README.md lists them too).
var tracedCalls = []string{
	"core.OpenPipeline", "core.Pipeline.Engine", "core.Pipeline.Translator", "core.RestoreState",
	"engine.NewServer(e).ServeHTTP", "engine.Engine.Ask", "engine.Engine.HarvestAll", "engine.Engine.SnapshotTo",
	"qa.System.AnswerTimed", "nl2olap.Translator.Translate", "ir.Index.Search", "dw.Warehouse.Execute",
	"nlp.SplitSentences", "ir.Index.AddBatch", "ir.Index.PostingsBytes", "etl.Loader.LoadRecords",
	"webcorpus.ExtractText", "core.ScaledPage",
}

// servingConfig is the core.Config `dwqa serve -seed 0` boots with.
func servingConfig(cacheOff bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 0
	if cacheOff {
		cfg.Engine.CacheSize = -1
	}
	return cfg
}

// discard is the http.ResponseWriter of the in-process replay.
type discard struct {
	header http.Header
	status int
}

func (d *discard) Header() http.Header { return d.header }
func (d *discard) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discard) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(b), nil
}

func serveOnce(h http.Handler, body []byte) (func(), *discard) {
	req, err := http.NewRequest(http.MethodPost, "/ask", bytes.NewReader(body))
	if err != nil {
		panic(err) // constant method and URL
	}
	w := &discard{header: http.Header{}}
	return func() { h.ServeHTTP(w, req) }, w
}

func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds))
}

func us(ns float64) float64 { return ns / 1e3 }

func sortedNs(ds []time.Duration) []int64 {
	out := make([]int64, len(ds))
	for i, d := range ds {
		out[i] = int64(d)
	}
	return sortedCopy(out)
}

// traceServing replays the head of a serving workload's request
// sequence in process, for about budget, and adds the in-process layer
// metrics to m.
func (h *harness) traceServing(wl servingWorkload, corp *corpus, src *source, budget time.Duration, m metrics) error {
	dir := filepath.Join(h.tmpDir, wl.name+"-trace-data")
	if _, err := copyDir(corp.Dir, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tr := &tracer{t0: time.Now()}
	hot := src.order != nil

	var p *core.Pipeline
	var err error
	_, openD := tr.do("core.OpenPipeline", -1, -1, func() { p, _, err = core.OpenPipeline(servingConfig(!hot), dir) })
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer p.Store().Close()
	eng, err := p.Engine()
	if err != nil {
		return err
	}
	trans, err := p.Translator()
	if err != nil {
		return err
	}
	handler := engine.NewServer(eng)
	topK := p.QA.Config().TopPassages
	ctx := context.Background()

	// The replayed requests are the head of the sequence the server was
	// sent.
	limit := 2000
	if !hot && limit > len(src.reqs) {
		limit = len(src.reqs)
	}
	if hot {
		for i := range src.reqs { // fill the cache, as the server's warm-up does
			run, _ := serveOnce(handler, src.bodies[i])
			run()
		}
	}

	// First pass, untraced: ServeHTTP only. It sets how many requests fit
	// the budget (the traced pass costs about four of it, the last pass
	// one), gives the allocation counts, and takes the first-touch costs
	// of a freshly restored index so that the two passes compared below
	// both run warm.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for n < limit && (n < 50 || time.Since(start) < budget/6) {
		_, body := src.at(n)
		run, w := serveOnce(handler, body)
		run()
		if w.status != http.StatusOK {
			return fmt.Errorf("trace: in-process replay of request %d answered HTTP %d", n, w.status)
		}
		n++
	}
	runtime.ReadMemStats(&after)

	var serve, edgeSelf, askSelf, translate, analyse, search, extract, execute []time.Duration
	for i := 0; i < n; i++ {
		req, body := src.at(i)
		run, _ := serveOnce(handler, body)
		s1, dServe := tr.do("engine.ServeHTTP", i, -1, run)
		s2, dAsk := tr.do("engine.Engine.Ask", i, s1, func() { eng.Ask(ctx, req.Question) })
		serve = append(serve, dServe)
		edgeSelf = append(edgeSelf, dServe-dAsk)
		if hot {
			askSelf = append(askSelf, dAsk) // a cache hit calls nothing further in
			continue
		}
		var plan *nl2olap.Translation
		_, dTranslate := tr.do("nl2olap.Translator.Translate", i, s2, func() { plan, _ = trans.Translate(req.Question) })
		translate = append(translate, dTranslate)
		if req.Kind.factoid() {
			var res *qa.Result
			var tm qa.Timings
			s4, dAnswer := tr.do("qa.System.AnswerTimed", i, s2, func() { res, tm, err = p.QA.AnswerTimed(req.Question) })
			if err != nil {
				return fmt.Errorf("trace: %q: %w", req.Question, err)
			}
			tr.derived("qa.Timings.Analyse", i, s4, 0, tm.Analyse)
			tr.derived("qa.Timings.Search", i, s4, tm.Analyse, tm.Search)
			tr.derived("qa.Timings.Extract", i, s4, tm.Analyse+tm.Search, tm.Extract)
			_, dSearch := tr.do("ir.Index.Search", i, s4, func() { p.Index.Search(res.Analysis.Terms, topK) })
			askSelf = append(askSelf, dAsk-dTranslate-dAnswer)
			analyse = append(analyse, tm.Analyse)
			extract = append(extract, tm.Extract)
			search = append(search, dSearch)
			continue
		}
		if plan == nil {
			return fmt.Errorf("trace: %q did not compile to a plan", req.Question)
		}
		_, dExecute := tr.do("dw.Warehouse.Execute", i, s2, func() { _, err = p.Warehouse.Execute(plan.Query) })
		if err != nil {
			return fmt.Errorf("trace: %q: %w", req.Question, err)
		}
		askSelf = append(askSelf, dAsk-dTranslate-dExecute)
		execute = append(execute, dExecute)
	}
	if wl.feeds {
		for i, f := range harvestQuestions() {
			tr.do("engine.Engine.HarvestAll", n+i, -1, func() { _, _, err = eng.HarvestAll(ctx, []string{f.Question}) })
			if err != nil {
				return fmt.Errorf("trace: harvest %q: %w", f.Question, err)
			}
		}
	}

	// Last pass, untraced again: the same ServeHTTP calls with one clock
	// around the loop, the base the spans' cost is measured against.
	start = time.Now()
	for i := 0; i < n; i++ {
		_, body := src.at(i)
		run, _ := serveOnce(handler, body)
		run()
	}
	untraced := time.Since(start)
	var traced time.Duration
	for _, d := range serve {
		traced += d
	}
	searchNs, executeNs := sortedNs(search), sortedNs(execute)
	m.set("core.open_ms", ms(int64(openD)), 1)
	m.set("engine.edge_self_us", us(float64(percentile(sortedNs(edgeSelf), 50))), len(edgeSelf))
	m.set("engine.ask_self_us", us(float64(percentile(sortedNs(askSelf), 50))), len(askSelf))
	m.set("nl2olap.translate_us", us(mean(translate)), len(translate))
	m.set("nlp.analyse_us", us(mean(analyse)), len(analyse))
	m.set("qa.extract_us", us(mean(extract)), len(extract))
	m.set("ir.search_us_p50", us(float64(percentile(searchNs, 50))), len(search))
	m.set("ir.search_us_p99", us(float64(percentile(searchNs, 99))), len(search))
	m.set("dw.execute_us_p50", us(float64(percentile(executeNs, 50))), len(execute))
	m.set("dw.execute_us_p99", us(float64(percentile(executeNs, 99))), len(execute))
	m.set("go.allocs_per_req", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	m.set("go.alloc_bytes_per_req", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n)
	m.set("trace.untraced_rps", float64(n)/untraced.Seconds(), n)
	m.set("trace.traced_rps", float64(n)/traced.Seconds(), n)
	m.set("trace.overhead_share", traced.Seconds()/untraced.Seconds()-1, n)

	if err := traceSnapshot(tr, eng, m); err != nil {
		return err
	}
	return h.writeReport("trace.json", tr.report(wl.name, m))
}

// traceSnapshot times publishing a snapshot of the open pipeline and
// restoring it, the two halves of boot_s and of the seeder's periodic
// snapshots.
func traceSnapshot(tr *tracer, eng *engine.Engine, m metrics) error {
	var info store.SnapshotInfo
	var err error
	_, dWrite := tr.do("engine.Engine.SnapshotTo", -1, -1, func() { info, err = eng.SnapshotTo() })
	if err != nil {
		return fmt.Errorf("trace: snapshot: %w", err)
	}
	buf, err := os.ReadFile(info.Path)
	if err != nil {
		return err
	}
	_, dRestore := tr.do("core.RestoreState", -1, -1, func() { _, _, _, err = core.RestoreState(buf) })
	if err != nil {
		return fmt.Errorf("trace: restore: %w", err)
	}
	m.set("store.snapshot_bytes", float64(info.Bytes), 1)
	m.set("store.snapshot_write_ms", ms(int64(dWrite)), 1)
	m.set("store.restore_ms", ms(int64(dRestore)), 1)
	return nil
}

// tracedIngestPages is the slice of the page grid the ingest trace
// replays in process.
const tracedIngestPages = 640

// traceIngest replays a slice of the seeder's work in process — the
// same calls seed.Run makes per batch — on a fresh directory, then
// snapshots and restores the directory the seeder wrote.
func (h *harness) traceIngest(seeded string, m metrics) error {
	dir := filepath.Join(h.tmpDir, "ingest-trace-data")
	defer os.RemoveAll(dir)
	tr := &tracer{t0: time.Now()}
	var p *core.Pipeline
	var err error
	tr.do("core.OpenPipeline", -1, -1, func() { p, _, err = core.OpenPipeline(core.Config{}, dir) })
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var split, add, load time.Duration
	rows := 0
	for b := 0; b*64 < tracedIngestPages; b++ {
		var docs []ir.Document
		var recs []etl.WeatherRecord
		for i := b * 64; i < (b+1)*64; i++ {
			pg := core.ScaledPage(i, corpusSeed)
			doc := ir.Document{URL: pg.URL, Text: webcorpus.ExtractText(pg.HTML)}
			docs = append(docs, doc)
			for _, g := range pg.Gold {
				recs = append(recs, etl.WeatherRecord{City: g.City, Year: g.Year, Month: g.Month, Day: g.Day, TempC: g.TempC, SourceURL: pg.URL})
			}
			// The analysis AddBatch is about to repeat, on its own.
			_, d := tr.do("nlp.SplitSentences", b, -1, func() { nlp.SplitSentences(doc.Text) })
			split += d
		}
		_, d := tr.do("ir.Index.AddBatch", b, -1, func() { err = p.Index.AddBatch(docs) })
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		add += d
		_, d = tr.do("etl.Loader.LoadRecords", b, -1, func() { _, _, err = p.Loader.LoadRecords(recs) })
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		load += d
		rows += len(recs)
	}
	postingBytes, postings := p.Index.PostingsBytes()
	if err := p.Store().Close(); err != nil {
		return err
	}
	m.set("nlp.doc_analyse_us_per_page", us(float64(split))/tracedIngestPages, tracedIngestPages)
	m.set("ir.add_us_per_page", us(float64(add-split))/tracedIngestPages, tracedIngestPages)
	m.set("etl.load_us_per_row", us(float64(load))/float64(rows), rows)
	m.set("ir.bytes_per_posting", ratio(float64(postingBytes), float64(postings)), postings)

	// Snapshot and restore at full size, on the directory the seeder
	// just wrote.
	var full *core.Pipeline
	_, openD := tr.do("core.OpenPipeline", -1, -1, func() { full, _, err = core.OpenPipeline(core.Config{}, seeded) })
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer full.Store().Close()
	m.set("core.open_ms", ms(int64(openD)), 1)
	eng, err := full.Engine()
	if err != nil {
		return err
	}
	if err := traceSnapshot(tr, eng, m); err != nil {
		return err
	}
	return h.writeReport("trace.json", tr.report("ingest", m))
}
