// Package seed is the streaming ingestion layer of the reproduction:
// it feeds arbitrary-size corpora (millions of passages) into a durable
// pipeline — IR index and warehouse together — in bounded batches, with
// checkpoint/resume so a killed run restarts where it left off instead
// of from zero.
//
// The design is a cursor over a deterministic page stream:
//
//   - pages arrive either from the generated scaled-corpus grid
//     (core.ScaledPage — the benchmark corpus, produced positionally so
//     no window of it is ever materialised beyond two batches: the one
//     committing and the one being prepared) or from a JSONL file read
//     line by line;
//   - ingestion is a two-stage pipeline with a look-ahead of one batch:
//     while batch n commits, batch n+1 is read or generated and its
//     documents analysed (ir.AnalyseBatch), the per-page work fanned
//     out over runtime.GOMAXPROCS(0) goroutines in page order;
//   - each batch commits, serially and in stream order, through the
//     same durable paths serving feeds use — ir.Index.Add (one WAL
//     record per batch of documents) and etl.Loader.LoadRecords (one
//     combined members+rows WAL record) — so a crash at any point
//     leaves a state WAL replay reconstructs;
//   - after every committed batch a checkpoint (JSON: source
//     fingerprint, pages consumed, the store's WAL sequence number) is
//     atomically renamed into place. On resume the checkpoint is
//     trusted only if its WAL sequence is covered by what recovery
//     actually replayed; otherwise the cursor restarts from zero and
//     idempotency (ir.Index.HasURL for documents, the loader's
//     provenance dedup for rows) re-skips everything already ingested.
//
// The combination makes kill-and-resume converge to the byte-identical
// warehouse, index and ontology state of an uninterrupted run — the
// invariant TestSeederKillResume pins.
package seed

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dwqa/internal/core"
	"dwqa/internal/etl"
	"dwqa/internal/ir"
	"dwqa/internal/obs"
	"dwqa/internal/store"
	"dwqa/internal/webcorpus"
)

// CheckpointFile is the name of the resume checkpoint inside the data
// directory, next to the store's WAL and snapshots.
const CheckpointFile = "seeder.ckpt"

// Defaults for the batching knobs.
const (
	DefaultBatchPages    = 64
	DefaultSnapshotEvery = 50 // batches between durable snapshots
)

// Page is one unit of the ingestion stream: a document for the index
// plus the warehouse records asserted by it.
type Page struct {
	URL     string
	Text    string
	Records []etl.WeatherRecord
}

// Config parameterises one seeder run.
type Config struct {
	// DataDir is the durable store directory (created if missing).
	DataDir string
	// Passages is the target passage count for generated mode: the run
	// stops at the first batch boundary where the index holds at least
	// this many passages. Ignored in JSONL mode (the file's end stops
	// the run).
	Passages int
	// MaxPages, when > 0, caps the pages consumed this run.
	MaxPages int
	// BatchPages is the commit granularity (pages per batch). Zero
	// selects DefaultBatchPages. Checkpoints land on batch boundaries,
	// so resume re-processes at most one batch.
	BatchPages int
	// SnapshotEvery is the number of committed batches between durable
	// snapshots (bounding WAL replay after a kill). Zero selects
	// DefaultSnapshotEvery; negative disables periodic snapshots (one
	// is still written at the end).
	SnapshotEvery int
	// Seed drives the generated corpus grid. Must match across resumed
	// runs of one data directory (the checkpoint fingerprint enforces
	// it).
	Seed int64
	// JSONL, when set, streams pages from this file instead of the
	// generated grid. Each line: {"url":..., "text":...,
	// "records":[{"city":...,"year":...,"month":...,"day":...,
	// "temp_c":...}]}.
	JSONL string
	// Logf, when set, receives progress lines (one per ProgressEvery
	// batches) and lifecycle messages.
	Logf func(format string, args ...any)
	// ProgressEvery is the number of batches between progress lines
	// (zero = 16).
	ProgressEvery int
	// FS overrides the filesystem (fault-injection tests). Nil = OS.
	FS store.FS
	// Core configures the pipeline the data directory boots with; the
	// zero value uses the scenario defaults. Must match across resumes
	// (the store's own fingerprint check enforces it).
	Core core.Config
	// CrashAfterBatches, when > 0, aborts the run with ErrCrashed
	// immediately after committing that many batches this run — after
	// the WAL writes, before the batch's checkpoint lands. It simulates
	// the worst-case kill window for the resume tests.
	CrashAfterBatches int
	// Metrics, when set, is the registry the run's instruments land on
	// (heap/RSS gauges, dwqa_seeder_pages_total, throughput and
	// checkpoint-age gauges, and dwqa_seeder_wait_seconds_total — the
	// time the commit loop waited for a prepared batch, which tells an
	// ingest bound by preparation from one bound by commit) so an
	// embedding process can expose them.
	// Nil gives the run a private registry; the progress line reads the
	// gauges either way.
	Metrics *obs.Registry
}

// ErrCrashed is returned by the CrashAfterBatches test hook.
var ErrCrashed = errors.New("seed: simulated crash")

// Summary reports what one run did. The JSON form is the machine-
// readable trailer cmd/seeder prints ("seeder-summary {...}") for
// scripts driving ingestion runs; Elapsed marshals as nanoseconds.
type Summary struct {
	Resumed    bool          `json:"resumed"`     // a valid checkpoint advanced the cursor
	StartPages int           `json:"start_pages"` // cursor position the run started from
	PagesSeen  int           `json:"pages_seen"`  // pages consumed this run
	DocsAdded  int           `json:"docs_added"`  // documents actually indexed (HasURL skipped the rest)
	Loaded     int           `json:"loaded"`      // fact rows committed this run
	Skipped    int           `json:"skipped"`     // records deduplicated away
	Passages   int           `json:"passages"`    // index passage count at exit
	Documents  int           `json:"documents"`   // index document count at exit
	WALSeq     uint64        `json:"wal_seq"`     // store sequence at exit
	Elapsed    time.Duration `json:"elapsed_ns"`
}

// checkpoint is the resume cursor, written atomically after every
// committed batch.
type checkpoint struct {
	// Fingerprint ties the cursor to one page stream: a checkpoint
	// written against a different source, seed or batch size must not
	// advance this run's cursor (batch size matters because the stop
	// condition is evaluated on batch boundaries — resuming with the
	// same geometry keeps those boundaries, and therefore the final
	// state, identical to an uninterrupted run).
	Fingerprint string `json:"fingerprint"`
	// Pages is the number of stream pages fully committed.
	Pages int `json:"pages"`
	// WALSeq is the store sequence after the batch commit. A resume
	// trusts the checkpoint only if recovery replayed at least this far
	// — a truncated WAL (crash mid-append, corruption) invalidates the
	// cursor and the run falls back to scanning from zero, which
	// idempotency makes merely slower, never wrong.
	WALSeq uint64 `json:"wal_seq"`
}

// Run executes one seeder pass: boot (or recover) the durable pipeline,
// resume the cursor, stream batches until the target is met, snapshot,
// close.
func Run(cfg Config) (*Summary, error) {
	start := time.Now()
	fsys := cfg.FS
	if fsys == nil {
		fsys = store.OS()
	}
	if cfg.BatchPages <= 0 {
		cfg.BatchPages = DefaultBatchPages
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = 16
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.JSONL == "" && cfg.Passages <= 0 && cfg.MaxPages <= 0 {
		return nil, fmt.Errorf("seed: generated mode needs a passage target or a page cap")
	}

	// The run's instruments. The heap/RSS gauges share one memoised
	// sampler, so the progress line reads them instead of re-sampling
	// runtime.MemStats and /proc itself; the counters and the
	// checkpoint-age gauge give an embedding process (Config.Metrics)
	// a live view of ingestion health.
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	proc := obs.RegisterProcessGauges(reg)
	pagesTotal := reg.Counter("dwqa_seeder_pages_total",
		"Pages committed by the seeder.")
	var rateBits atomic.Uint64 // float64 bits: pages/s over the last progress window
	reg.GaugeFunc("dwqa_seeder_pages_per_second",
		"Ingest throughput over the last progress window.",
		func() float64 { return math.Float64frombits(rateBits.Load()) })
	var waitNanos atomic.Int64
	reg.CounterFunc("dwqa_seeder_wait_seconds_total",
		"Seconds the commit loop spent blocked waiting for the next prepared batch.",
		func() float64 { return time.Duration(waitNanos.Load()).Seconds() })
	var lastCkpt atomic.Int64 // unix nanos of the last checkpoint write; 0 = none yet
	reg.GaugeFunc("dwqa_seeder_checkpoint_age_seconds",
		"Seconds since the last committed checkpoint (-1 before the first).",
		func() float64 {
			at := lastCkpt.Load()
			if at == 0 {
				return -1
			}
			return time.Since(time.Unix(0, at)).Seconds()
		})

	p, info, err := core.OpenPipelineFS(cfg.Core, cfg.DataDir, fsys)
	if err != nil {
		return nil, err
	}
	st := p.Store()
	defer st.Close()
	if info.Recovered {
		logf("recovered %s (replayed %d WAL records, seq %d)", info.SnapshotPath, info.WALReplayed, st.Seq())
	} else {
		logf("fresh data directory %s", cfg.DataDir)
	}

	sum := &Summary{}
	cursor := 0
	fp := cfg.sourceFingerprint()
	if cp, err := readCheckpoint(fsys, cfg.DataDir); err == nil && cp != nil {
		switch {
		case cp.Fingerprint != fp:
			logf("checkpoint is for a different stream (%q); restarting scan", cp.Fingerprint)
		case cp.WALSeq > st.Seq():
			logf("checkpoint seq %d ahead of recovered WAL seq %d; restarting scan", cp.WALSeq, st.Seq())
		default:
			cursor = cp.Pages
			sum.Resumed = true
			logf("resuming at page %d (checkpoint seq %d)", cursor, cp.WALSeq)
		}
	}
	sum.StartPages = cursor

	src, err := cfg.newSource(cursor)
	if err != nil {
		return nil, err
	}
	defer src.close()

	// The run is a two-stage pipeline with a look-ahead of one batch:
	// while the loop below commits batch n, one goroutine prepares batch
	// n+1 (prepare). The look-ahead is issued once batch n is installed
	// in the index, when the stop condition can be evaluated, so no
	// batch is prepared past the stop; an outstanding one is waited for
	// before Run returns on any path.
	var ahead chan prepared
	lookAhead := func() {
		if cfg.met(p, sum) {
			return
		}
		ch, at, n := make(chan prepared, 1), cursor, cfg.remaining(sum, cfg.BatchPages)
		ahead = ch
		go func() { ch <- prepare(src, p.Index, at, n) }()
	}
	defer func() {
		if ahead != nil {
			<-ahead
		}
	}()

	batchesDone := 0
	window := time.Now()
	windowPages := 0
	lookAhead()
	for ahead != nil {
		blocked := time.Now()
		b := <-ahead
		ahead = nil
		waitNanos.Add(int64(time.Since(blocked)))
		if b.err != nil {
			return nil, b.err
		}
		if b.pages == 0 {
			break // JSONL exhausted
		}
		at := cursor
		if err := p.Index.Add(b.batch); err != nil {
			return nil, fmt.Errorf("seed: indexing batch at page %d: %w", at, err)
		}
		sum.DocsAdded += b.docs
		cursor += b.pages
		sum.PagesSeen += b.pages
		windowPages += b.pages
		batchesDone++
		lookAhead()

		rep, _, err := p.Loader.LoadRecords(b.recs)
		if err != nil {
			return nil, fmt.Errorf("seed: loading batch at page %d: %w", at, err)
		}
		sum.Loaded += rep.Loaded
		sum.Skipped += rep.Skipped
		pagesTotal.Add(uint64(b.pages))

		if cfg.CrashAfterBatches > 0 && batchesDone >= cfg.CrashAfterBatches {
			// Simulated kill: the WAL holds the batch, the checkpoint does
			// not — the resume path's worst case.
			return sum, ErrCrashed
		}
		if err := writeCheckpoint(fsys, cfg.DataDir, checkpoint{Fingerprint: fp, Pages: cursor, WALSeq: st.Seq()}); err != nil {
			return nil, fmt.Errorf("seed: checkpoint: %w", err)
		}
		lastCkpt.Store(time.Now().UnixNano())
		if cfg.SnapshotEvery > 0 && batchesDone%cfg.SnapshotEvery == 0 {
			if err := snapshot(p); err != nil {
				return nil, err
			}
		}
		if batchesDone%cfg.ProgressEvery == 0 {
			elapsed := time.Since(window)
			rate := float64(windowPages) / elapsed.Seconds()
			rateBits.Store(math.Float64bits(rate))
			// Memory numbers come from the registered gauges (one shared
			// memoised sample), not a fresh MemStats/procfs read.
			logf("page %d: %d passages, %d rows loaded (%d deduped), %.0f pages/s, heap %d MiB live / %d MiB inuse, rss %d MiB, wal seq %d",
				cursor, p.Index.PassageCount(), sum.Loaded, sum.Skipped, rate,
				uint64(proc.HeapAlloc.Value())>>20, uint64(proc.HeapInuse.Value())>>20,
				uint64(proc.RSS.Value())>>20, st.Seq())
			window, windowPages = time.Now(), 0
		}
	}

	if err := snapshot(p); err != nil {
		return nil, err
	}
	sum.Passages = p.Index.PassageCount()
	sum.Documents = p.Index.DocCount()
	sum.WALSeq = st.Seq()
	sum.Elapsed = time.Since(start)
	logf("done: %d pages this run (%d docs indexed, %d rows, %d deduped), %d passages total, %v (%v waiting for prepared batches)",
		sum.PagesSeen, sum.DocsAdded, sum.Loaded, sum.Skipped, sum.Passages, sum.Elapsed.Round(time.Millisecond),
		time.Duration(waitNanos.Load()).Round(time.Millisecond))
	return sum, nil
}

// prepared is one batch made ready for commit by prepare.
type prepared struct {
	pages int       // stream pages consumed; 0 at the end of a JSONL stream
	docs  int       // documents in batch: the pages the index did not hold
	batch *ir.Batch // the analysed documents
	recs  []etl.WeatherRecord
	err   error
}

// prepare reads the next n pages, from stream position at, and analyses
// the documents of those the index does not hold yet. It reads the index
// only through HasURL: Run issues it after installing the previous batch
// and installs nothing more until it has received the result.
func prepare(src source, ix *ir.Index, at, n int) prepared {
	pages, err := src.nextBatch(n)
	if err != nil {
		return prepared{err: err}
	}
	docs := make([]ir.Document, 0, len(pages))
	var recs []etl.WeatherRecord
	for _, pg := range pages {
		// HasURL makes re-processed pages (a resume over the tail the
		// checkpoint had not covered) no-ops on the index; the loader's
		// provenance dedup does the same for the records, so the two
		// halves stay consistent even when a crash landed between
		// their WAL records.
		if !ix.HasURL(pg.URL) {
			docs = append(docs, ir.Document{URL: pg.URL, Text: pg.Text})
		}
		recs = append(recs, pg.Records...)
	}
	batch, err := ir.AnalyseBatch(docs)
	if err != nil {
		return prepared{err: fmt.Errorf("seed: indexing batch at page %d: %w", at, err)}
	}
	return prepared{pages: len(pages), docs: len(docs), batch: batch, recs: recs}
}

// met evaluates the stop conditions that are deterministic in the page
// sequence (checked on batch boundaries only, so interrupted and
// uninterrupted runs agree on where to stop).
func (cfg Config) met(p *core.Pipeline, sum *Summary) bool {
	if cfg.JSONL == "" && cfg.Passages > 0 && p.Index.PassageCount() >= cfg.Passages {
		return true
	}
	return cfg.MaxPages > 0 && sum.PagesSeen >= cfg.MaxPages
}

// remaining bounds the next batch by the MaxPages budget.
func (cfg Config) remaining(sum *Summary, batch int) int {
	if cfg.MaxPages > 0 && cfg.MaxPages-sum.PagesSeen < batch {
		return cfg.MaxPages - sum.PagesSeen
	}
	return batch
}

// sourceFingerprint identifies the page stream a checkpoint cursor is
// valid against. For JSONL it must distrust an edited file, not just a
// renamed one: a line rewritten in place changes neither the base name
// nor (necessarily) the size, yet shifts every page after it — resuming
// the old cursor over the new stream would silently skip or duplicate
// pages. Folding the file size and a full content hash in makes any
// in-place edit restart the scan, which idempotency turns into a safe
// (merely slower) full re-skip.
func (cfg Config) sourceFingerprint() string {
	if cfg.JSONL != "" {
		size, sum, err := hashFile(cfg.JSONL)
		if err != nil {
			// Unreadable source: poison the fingerprint so no stored
			// checkpoint matches; newSource reports the real error.
			return fmt.Sprintf("jsonl file=%s unreadable=%v", filepath.Base(cfg.JSONL), err)
		}
		return fmt.Sprintf("jsonl file=%s size=%d sha256=%s batch=%d",
			filepath.Base(cfg.JSONL), size, sum, cfg.BatchPages)
	}
	return fmt.Sprintf("scaled seed=%d batch=%d", cfg.Seed, cfg.BatchPages)
}

// hashFile streams the file through SHA-256 without materialising it —
// JSONL corpora can be far larger than memory.
func hashFile(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	size, err := io.Copy(h, f)
	if err != nil {
		return 0, "", err
	}
	return size, hex.EncodeToString(h.Sum(nil)), nil
}

// snapshot publishes the current state (bounding future recovery work)
// through the pipeline's snapshotter. The seeder is the directory's only
// writer, so no commit quiesce is needed.
func snapshot(p *core.Pipeline) error {
	publish, err := p.Durable().ExportForSnapshot()
	if err != nil {
		return fmt.Errorf("seed: exporting state: %w", err)
	}
	if _, err := publish(); err != nil {
		return fmt.Errorf("seed: snapshot: %w", err)
	}
	return nil
}

// readCheckpoint loads the cursor; a missing or unreadable file means
// "no checkpoint" (nil, nil) — corruption falls back to a full rescan,
// never an error.
func readCheckpoint(fsys store.FS, dir string) (*checkpoint, error) {
	buf, err := fsys.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		return nil, nil
	}
	var cp checkpoint
	if err := json.Unmarshal(buf, &cp); err != nil || cp.Pages < 0 {
		return nil, nil
	}
	return &cp, nil
}

// writeCheckpoint publishes the cursor atomically: temp file, fsync,
// rename, directory sync — the same protocol the store's snapshots use,
// so a kill mid-write leaves the previous checkpoint intact.
func writeCheckpoint(fsys store.FS, dir string, cp checkpoint) error {
	buf, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	f, err := fsys.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return err
	}
	name := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(name)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(name)
		return err
	}
	if err := fsys.Rename(name, filepath.Join(dir, CheckpointFile)); err != nil {
		fsys.Remove(name)
		return err
	}
	return fsys.SyncDir(dir)
}

// source streams pages starting at an absolute cursor position.
type source interface {
	// nextBatch returns up to n pages (fewer only at end of stream).
	nextBatch(n int) ([]Page, error)
	close()
}

func (cfg Config) newSource(cursor int) (source, error) {
	if cfg.JSONL != "" {
		return newJSONLSource(cfg.JSONL, cursor)
	}
	return &gridSource{next: cursor, seed: cfg.Seed}, nil
}

// gridSource generates the scaled-corpus page grid positionally — the
// streaming view of core.BuildScaledCorpus's enumeration. Resume is a
// counter restart; nothing before the cursor is regenerated.
type gridSource struct {
	next int
	seed int64
}

// nextBatch generates the pages on up to runtime.GOMAXPROCS(0)
// goroutines: a page is a pure function of its grid position, and each
// lands in its own slot, so the batch keeps page order.
func (g *gridSource) nextBatch(n int) ([]Page, error) {
	out := make([]Page, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				pg := core.ScaledPage(g.next+i, g.seed)
				out[i] = Page{URL: pg.URL, Text: webcorpus.ExtractText(pg.HTML), Records: goldRecords(pg)}
			}
		}()
	}
	wg.Wait()
	g.next += n
	return out, nil
}

func (g *gridSource) close() {}

// goldRecords converts a generated page's gold facts into loader
// records with the page as provenance.
func goldRecords(pg webcorpus.Page) []etl.WeatherRecord {
	recs := make([]etl.WeatherRecord, 0, len(pg.Gold))
	for _, gold := range pg.Gold {
		recs = append(recs, etl.WeatherRecord{
			City: gold.City, Year: gold.Year, Month: gold.Month, Day: gold.Day,
			TempC: gold.TempC, SourceURL: pg.URL,
		})
	}
	return recs
}

// jsonlPage is the wire form of one JSONL corpus line.
type jsonlPage struct {
	URL     string `json:"url"`
	Text    string `json:"text"`
	Records []struct {
		City  string  `json:"city"`
		Year  int     `json:"year"`
		Month int     `json:"month"`
		Day   int     `json:"day"`
		TempC float64 `json:"temp_c"`
	} `json:"records"`
}

// jsonlSource streams a line-delimited corpus file with bounded memory:
// one batch of lines is decoded at a time. Resume skips cursor lines
// without decoding them.
type jsonlSource struct {
	f    *os.File
	sc   *bufio.Scanner
	line int
}

func newJSONLSource(path string, cursor int) (*jsonlSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20) // pages can be large
	s := &jsonlSource{f: f, sc: sc}
	for s.line < cursor {
		if !sc.Scan() {
			break // shorter file than the checkpoint claims; EOF next
		}
		s.line++
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("seed: skipping to line %d: %w", cursor, err)
	}
	return s, nil
}

func (s *jsonlSource) nextBatch(n int) ([]Page, error) {
	out := make([]Page, 0, n)
	for len(out) < n && s.sc.Scan() {
		s.line++
		raw := s.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var jp jsonlPage
		if err := json.Unmarshal(raw, &jp); err != nil {
			return nil, fmt.Errorf("seed: %s line %d: %w", s.f.Name(), s.line, err)
		}
		pg := Page{URL: jp.URL, Text: jp.Text}
		for _, r := range jp.Records {
			pg.Records = append(pg.Records, etl.WeatherRecord{
				City: r.City, Year: r.Year, Month: r.Month, Day: r.Day,
				TempC: r.TempC, SourceURL: jp.URL,
			})
		}
		out = append(out, pg)
	}
	if err := s.sc.Err(); err != nil {
		return nil, fmt.Errorf("seed: reading %s: %w", s.f.Name(), err)
	}
	return out, nil
}

func (s *jsonlSource) close() { s.f.Close() }
