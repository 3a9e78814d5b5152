// Package engine is the concurrent QA serving layer of the reproduction:
// the piece that turns the five-step DW↔QA pipeline from a one-question-
// at-a-time library call into a service able to absorb user traffic (see
// DESIGN.md §6).
//
// An Engine wraps the two tuned qa.Systems of a pipeline — the
// interactive system and the wide-passage harvester — plus the Step 5
// loader, and adds:
//
//   - a worker-pool batch executor (AskAll, HarvestAll) running up to
//     Config.Workers questions in parallel with deterministic result
//     ordering (results[i] always answers questions[i]);
//   - request coalescing: identical questions inside one batch are
//     analysed once and fanned out, the serving analogue of the
//     singleflight pattern;
//   - an LRU answer cache keyed on the normalised question text, with
//     tag-based selective invalidation: entries record the warehouse
//     members and facts their answer depends on, and a Step 5 feed
//     evicts only the intersecting entries (cache.go, tags.go);
//   - a parallelised Step 5: answers are extracted concurrently per
//     question and committed to the Weather fact in batch instead of
//     row-at-a-time;
//   - analytic dispatch: with a translator installed (SetTranslator),
//     every asked question is classified and analytic ones ("average
//     temperature in Barcelona by month") are compiled to OLAP plans
//     and executed against the warehouse instead of the factoid modules,
//     their answers cached in the same feed-invalidated LRU.
//
// The HTTP façade over an Engine lives in server.go; cmd/dwqa's "serve"
// subcommand wires both to a pipeline.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dwqa/internal/etl"
	"dwqa/internal/nl2olap"
	"dwqa/internal/obs"
	"dwqa/internal/qa"
	"dwqa/internal/store"
)

// Default sizing of the serving layer.
const (
	DefaultWorkers   = 8
	DefaultCacheSize = 1024
)

// Default per-request deadlines, applied when the caller's context has
// none. Interactive asks get a tight budget; harvests run a full
// retrieve-extract-load cycle per question and get a generous one.
const (
	DefaultAskTimeout     = 2 * time.Second
	DefaultHarvestTimeout = 30 * time.Second
)

// Config sizes an Engine.
type Config struct {
	// Workers is the number of questions processed in parallel per batch.
	// Zero or less selects DefaultWorkers.
	Workers int
	// CacheSize is the LRU answer-cache capacity in entries. Zero selects
	// DefaultCacheSize; a negative value disables caching.
	CacheSize int
	// MaxInflight bounds concurrently admitted requests (ask and harvest
	// batches each count as one). Zero selects DefaultMaxInflight; a
	// negative value disables admission control.
	MaxInflight int
	// MaxQueue bounds how many requests may wait for an inflight slot
	// before new arrivals are shed with ErrShed. Zero selects
	// DefaultMaxQueue; a negative value disables queueing (immediate
	// shed once MaxInflight requests are running).
	MaxQueue int
	// AskTimeout is the deadline applied to Ask/AskAll/AskOLAP/Trace
	// requests whose context carries none. Zero selects
	// DefaultAskTimeout; a negative value disables the default deadline.
	AskTimeout time.Duration
	// HarvestTimeout is the same for HarvestAll. Zero selects
	// DefaultHarvestTimeout; negative disables.
	HarvestTimeout time.Duration
}

// ErrPanic reports that a question's processing panicked. The panic was
// recovered at the worker boundary and confined to the slots that asked
// that question; the process and the rest of the batch are unaffected.
// The HTTP layer maps it to 500 on the affected request only.
var ErrPanic = errors.New("engine: internal error")

// Engine is the serving layer over one pipeline's QA side. It is safe for
// concurrent use: AskAll, Ask, HarvestAll and the HTTP handlers may all
// run at once (the underlying qa.System, ir.Index and etl.Loader are
// concurrency-safe, and the cache serialises itself).
type Engine struct {
	ask       *qa.System
	harvester *qa.System
	loader    *etl.Loader
	index     CorpusStats
	cache     *answerCache
	workers   int
	// fullFlush flushes the whole answer cache on every committed feed
	// instead of evicting by tag: the oracle the equivalence tests
	// compare selective invalidation against (export_test.go).
	fullFlush bool

	// Resilience plumbing (gate.go, degrade.go): admission control,
	// per-request deadlines, and the degraded read-only latch.
	gate            *gate
	askTimeout      time.Duration
	harvestTimeout  time.Duration
	degraded        atomic.Pointer[degradedState]
	readOnlyReplica atomic.Bool

	// met owns the metrics registry, the stage tracer and the serving
	// counters (metrics.go). Every counter the Stats payload reports
	// lives there, so /healthz and /metrics read one source.
	met *engineMetrics

	// answerFn/harvestFn are the per-question work functions; they default
	// to the wrapped qa.Systems' timed entry points (the Timings return is
	// by value, so the hot path allocates nothing for it) and exist as seams so tests can inject panicking or
	// stateful implementations (export_test.go).
	answerFn  func(question string) (*qa.Result, qa.Timings, error)
	harvestFn func(question string) ([]qa.Answer, *qa.Result, qa.Timings, error)

	// generation counts warehouse feeds; it bumps every time HarvestAll
	// commits, so clients can detect that answers may reflect a fresher
	// warehouse. Cache invalidation is separate and selective: a commit
	// evicts only the entries whose tags it touched (cache.go).
	generation atomic.Uint64

	mu             sync.Mutex
	defaultHarvest []string

	// commitMu serialises warehouse feed commits against snapshot
	// exports (persist.go). Ask paths never take it.
	commitMu sync.Mutex

	// Durability wiring (persist.go): where snapshots come from and go
	// to, what boot recovery replayed, and when the last snapshot was
	// published (unix nanos; 0 = never).
	snapSource   SnapshotSource
	store        *store.Store
	snapshotter  Snapshotter // generalised persistence (SetSnapshotter)
	recovery     *store.RecoveryInfo
	lastSnapshot atomic.Int64

	// trans, when set, classifies every asked question: analytic
	// questions compile to OLAP plans against the warehouse instead of
	// running the factoid modules (DESIGN.md §6). Stored atomically so
	// serving workers read it lock-free.
	trans atomic.Pointer[nl2olap.Translator]

	// shardStats, when set, reports per-shard replication positions for
	// /healthz (a sharded leader reports per-shard WAL sequences; a
	// follower adds its lag behind each). Stored atomically so Stats
	// never races SetShardStats.
	shardStats atomic.Pointer[func() []ShardStat]
}

// ShardStat is one shard's replication position in the /healthz payload.
// On a leader Lag is always zero; on a follower it is the number of WAL
// records the shard has observed on the leader but not yet applied
// (negative values never occur).
type ShardStat struct {
	Shard int    `json:"shard"`
	Seq   uint64 `json:"seq"`
	Lag   int64  `json:"lag"`
}

// SetShardStats installs the per-shard replication reporter surfaced
// through Stats and /healthz, and registers one replica seq/lag gauge
// pair per shard on the metrics registry (the gauges read the reporter
// at scrape time, so a later reconfigure is picked up live).
func (e *Engine) SetShardStats(fn func() []ShardStat) {
	if fn == nil {
		e.shardStats.Store(nil)
		return
	}
	e.shardStats.Store(&fn)
	e.registerShardGauges(len(fn()))
}

// CorpusStats reports the size of the served corpus for the /healthz
// statistics. A single *ir.Index satisfies it; a sharded cluster reports
// the totals across its shards.
type CorpusStats interface {
	DocCount() int
	PassageCount() int
}

// New assembles an engine. ask is required; harvester defaults to ask when
// nil (harvesting then runs with the interactive passage budget); loader
// may be nil, in which case HarvestAll extracts but refuses to load; index
// is optional and only feeds the /healthz statistics.
func New(cfg Config, ask, harvester *qa.System, loader *etl.Loader, index CorpusStats) (*Engine, error) {
	if ask == nil {
		return nil, fmt.Errorf("engine: nil QA system")
	}
	if harvester == nil {
		harvester = ask
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	askTimeout := cfg.AskTimeout
	if askTimeout == 0 {
		askTimeout = DefaultAskTimeout
	}
	harvestTimeout := cfg.HarvestTimeout
	if harvestTimeout == 0 {
		harvestTimeout = DefaultHarvestTimeout
	}
	met := newEngineMetrics()
	// The cache and gate count on the registry's counters directly, so
	// Stats and /metrics read the same cells.
	cache := newAnswerCache(cacheSize)
	cache.hits, cache.misses, cache.evicted = met.cacheHits, met.cacheMisses, met.cacheEvicted
	e := &Engine{
		ask:            ask,
		harvester:      harvester,
		loader:         loader,
		index:          index,
		cache:          cache,
		workers:        workers,
		gate:           newGate(cfg.MaxInflight, cfg.MaxQueue, met.shedTotal, met.queueWait),
		askTimeout:     askTimeout,
		harvestTimeout: harvestTimeout,
		met:            met,
		answerFn:       ask.AnswerTimed,
		harvestFn:      harvester.HarvestTimed,
	}
	met.registerEngineFuncs(e)
	return e, nil
}

// withDeadline applies the engine's default deadline d when ctx carries
// none (d <= 0 leaves ctx untouched).
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// SetDefaultHarvest installs the harvest workload used when HarvestAll or
// the /harvest endpoint receive no questions (the pipeline installs its
// WeatherQuestions here).
func (e *Engine) SetDefaultHarvest(questions []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.defaultHarvest = append([]string(nil), questions...)
}

// DefaultHarvest returns a copy of the installed default workload.
func (e *Engine) DefaultHarvest() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.defaultHarvest...)
}

// SetTranslator installs the NL→OLAP translator that turns Ask/AskAll
// into a mixed-workload endpoint: each question is classified and
// analytic ones are dispatched to the compiled OLAP engine. Analytic
// answers share the factoid LRU, so Step 5 feeds invalidate them too.
func (e *Engine) SetTranslator(t *nl2olap.Translator) { e.trans.Store(t) }

// Translator returns the installed NL→OLAP translator (nil when the
// engine serves the factoid path only).
func (e *Engine) Translator() *nl2olap.Translator { return e.trans.Load() }

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.workers }

// Generation returns the number of warehouse feeds this engine has
// committed.
func (e *Engine) Generation() uint64 { return e.generation.Load() }

// InvalidateCache flushes the whole answer cache. Callers that mutate
// the warehouse, index or corpus through paths the engine cannot see
// must call it themselves: index mutations shift the global idf weights
// every factoid and retrieval score depends on, so nothing finer than a
// full flush is safe there. HarvestAll's own feeds no longer need it —
// they evict selectively by dependency tag.
func (e *Engine) InvalidateCache() { e.cache.flush() }

// AskResult is one slot of an AskAll batch. For factoid questions Result
// and Err mirror exactly what a sequential qa.System.Answer call for
// Question would have returned; for analytic questions OLAP carries the
// compiled plan and its result table instead (Result stays nil). Cached
// reports whether the answer came from the LRU (or from another identical
// question in the same batch).
type AskResult struct {
	Question string
	Result   *qa.Result
	OLAP     *nl2olap.Answer
	Err      error
	Cached   bool
}

// Ask answers a single question through the cache.
func (e *Engine) Ask(ctx context.Context, question string) AskResult {
	return e.AskAll(ctx, []string{question})[0]
}

// AskAll answers a batch of questions on the worker pool. Results are in
// input order: out[i] corresponds to questions[i], and for every
// distinct surface form it is byte-identical to what a sequential loop
// of Answer calls would produce. Questions that normalise identically
// (see NormalizeQuestion) are computed once per batch and share the
// first surface form's result — semantically the same answer, though
// its trace echoes the first form's text. Previously answered questions
// are served from the LRU until the next warehouse feed invalidates it.
// Per-question failures (e.g. no pattern matches) land in the
// corresponding slot's Err — one bad question never poisons the batch.
//
// The batch is one admission unit: a saturated engine rejects it whole
// (every slot's Err is ErrShed). The context deadline — the caller's, or
// Config.AskTimeout when the caller set none — is checked between
// questions: answers computed before expiry are returned, the remaining
// slots carry context.DeadlineExceeded, so a timed-out batch is partial,
// never silently empty. A panicking extraction is confined to its own
// slot(s); the rest of the batch completes normally.
func (e *Engine) AskAll(ctx context.Context, questions []string) []AskResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]AskResult, len(questions))
	for i, q := range questions {
		out[i].Question = q
	}
	if len(questions) == 0 {
		return out
	}
	ctx, cancel := withDeadline(ctx, e.askTimeout)
	defer cancel()
	if err := e.gate.acquire(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.met.timeoutTotal.Inc()
		}
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	defer e.gate.release()

	// Coalesce identical questions: one task answers every index that
	// asked it.
	type task struct {
		key     string
		text    string // first surface form seen for the key
		indices []int
	}
	byKey := map[string]int{}
	var tasks []task
	for i, q := range questions {
		key := NormalizeQuestion(q)
		if ti, ok := byKey[key]; ok {
			tasks[ti].indices = append(tasks[ti].indices, i)
			continue
		}
		byKey[key] = len(tasks)
		tasks = append(tasks, task{key: key, text: q, indices: []int{i}})
	}

	e.forEach(len(tasks), func(ti int) {
		t := &tasks[ti]
		// Span and outcome for the stage tracer: the deferred finish
		// below runs after the panic net, so every exit path — cached,
		// computed, errored, panicked — lands in the histograms with its
		// outcome, and a slow task logs its breakdown when armed.
		var sp obs.Span
		taskStart := time.Now()
		outcome := "ok"
		// Panic isolation: a module blowing up on one question fails that
		// question's slots, not the process and not the batch.
		defer func() {
			if r := recover(); r != nil {
				e.met.panicTotal.Inc()
				outcome = "panic"
				err := fmt.Errorf("%w answering %q: panic: %v", ErrPanic, t.text, r)
				for _, i := range t.indices {
					out[i] = AskResult{Question: out[i].Question, Err: err}
				}
			}
			e.met.tracer.Finish(&sp, time.Since(taskStart), t.text, outcome)
		}()
		// Deadline check per task: answer modules are CPU-bound and not
		// individually cancellable, so expiry is observed between
		// questions — in-flight answers finish, queued ones are marked.
		if err := ctx.Err(); err != nil {
			outcome = "timeout"
			for _, i := range t.indices {
				out[i].Err = err
			}
			return
		}
		lookupStart := time.Now()
		cached, ok, epoch := e.cache.get(t.key)
		sp.Observe(obs.StageCacheLookup, time.Since(lookupStart))
		if ok {
			for _, i := range t.indices {
				out[i].Result = cached.qa
				out[i].OLAP = cached.olap
				out[i].Cached = true
			}
			return
		}
		// Dispatch: analytic questions compile to OLAP plans; factoid
		// questions (ErrFactoid) fall through to the three modules. An
		// analytic question the metadata cannot ground is an error —
		// never a silently wrong factoid answer.
		if trans := e.trans.Load(); trans != nil {
			ans, otm, err := trans.AnswerTimed(t.text)
			sp.Observe(obs.StageOLAPCompile, otm.Compile)
			sp.Observe(obs.StageOLAPExecute, otm.Execute)
			switch {
			case err == nil:
				// Tagged with the warehouse members/facts the plan reads,
				// so feeds evict it only when they touch those.
				e.cache.put(t.key, cachedAnswer{olap: ans}, epoch, olapEntryTags(trans.Schema(), ans))
				for n, i := range t.indices {
					out[i].OLAP = ans
					out[i].Cached = n > 0
				}
				return
			case !errors.Is(err, nl2olap.ErrFactoid):
				outcome = "error"
				for _, i := range t.indices {
					out[i].Err = err
				}
				return
			}
		}
		res, qtm, err := e.answerFn(t.text)
		sp.Observe(obs.StageNLPAnalyse, qtm.Analyse)
		sp.Observe(obs.StageIRSearch, qtm.Search)
		sp.Observe(obs.StageQAExtract, qtm.Extract)
		if err == nil {
			// epoch-checked: a feed committed mid-computation drops the
			// insert instead of resurrecting a pre-feed answer. Factoid
			// answers carry no tags — they read the IR index, which feeds
			// never mutate — so they survive selective invalidation.
			e.cache.put(t.key, cachedAnswer{qa: res}, epoch, nil)
		} else {
			outcome = "error"
		}
		for n, i := range t.indices {
			out[i].Result = res
			out[i].Err = err
			// The first index did the work; the rest were coalesced.
			out[i].Cached = n > 0
		}
	})
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		e.met.timeoutTotal.Inc()
	}
	return out
}

// AskOLAP answers one question that must be analytic, through the same
// classification, cache and dispatch as Ask. Factoid questions are
// rejected by the translator's cheap classification (an error wrapping
// nl2olap.ErrFactoid) before the expensive factoid modules ever run, so
// the rejection path costs microseconds and never pollutes the cache.
func (e *Engine) AskOLAP(ctx context.Context, question string) (*nl2olap.Answer, error) {
	trans := e.trans.Load()
	if trans == nil {
		return nil, fmt.Errorf("engine: no NL→OLAP translator configured")
	}
	if _, err := trans.Translate(question); err != nil {
		if errors.Is(err, nl2olap.ErrFactoid) {
			return nil, fmt.Errorf("engine: %w (ask the factoid path)", err)
		}
		return nil, err
	}
	r := e.Ask(ctx, question) // classified analytic: serve via the cache
	if r.Err != nil {
		return nil, r.Err
	}
	if r.OLAP == nil {
		// Unreachable while classification is deterministic; kept so a
		// future translator change cannot hand back a factoid result.
		return nil, fmt.Errorf("engine: %w (answered by the factoid path)", nl2olap.ErrFactoid)
	}
	return r.OLAP, nil
}

// Trace answers a question and renders the paper's Table 1 trace for it.
// Analytic questions have no factoid trace; they are reported as such.
func (e *Engine) Trace(ctx context.Context, question string) (qa.Trace, error) {
	r := e.Ask(ctx, question)
	if r.Err != nil {
		return qa.Trace{}, r.Err
	}
	if r.OLAP != nil {
		return qa.Trace{}, fmt.Errorf("engine: %q is analytic (plan: %s); use the OLAP path", question, r.OLAP.PlanString())
	}
	return r.Result.Trace(), nil
}

// HarvestResult is one question's slot of a HarvestAll batch.
type HarvestResult struct {
	Question string
	Answers  []qa.Answer // extracted well-formed records
	Loaded   int         // fact rows this question contributed
	Skipped  int         // duplicates of already-loaded records
	Err      error
}

// HarvestAll runs the Step 5 harvest for a batch of questions: extraction
// runs concurrently on the worker pool, then every question's answers are
// committed to the warehouse in one batch load, in question order — so
// loaded/skipped counts match a sequential harvest-and-load loop exactly.
// An empty batch falls back to the engine's default harvest workload.
// After a commit the feed generation bumps and the answer cache evicts
// the entries whose dependency tags the feed touched. Extraction failures are per-question (Err in
// the slot); the batch still loads the questions that succeeded.
//
// Resilience semantics: a degraded engine refuses the feed outright with
// ErrDegraded. The deadline (the caller's, or Config.HarvestTimeout) is
// checked between extractions, and a batch that runs out of time is NOT
// committed — the per-item results (partial: finished extractions plus
// deadline-marked slots) come back with the context error, and nothing
// reached the warehouse, so the client can simply retry the whole batch.
// A feed whose commit fails at the WAL flips the engine into degraded
// read-only mode (degrade.go). A panicking extraction fails only its
// own slot.
func (e *Engine) HarvestAll(ctx context.Context, questions []string) ([]HarvestResult, *etl.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if degraded, reason := e.Degraded(); degraded {
		return nil, nil, fmt.Errorf("%w (cause: %s)", ErrDegraded, reason)
	}
	ctx, cancel := withDeadline(ctx, e.harvestTimeout)
	defer cancel()
	if err := e.gate.acquire(ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.met.timeoutTotal.Inc()
		}
		return nil, nil, err
	}
	defer e.gate.release()

	if len(questions) == 0 {
		questions = e.DefaultHarvest()
	}
	items := make([]HarvestResult, len(questions))
	e.forEach(len(questions), func(i int) {
		items[i].Question = questions[i]
		var sp obs.Span
		taskStart := time.Now()
		outcome := "ok"
		defer func() {
			if r := recover(); r != nil {
				e.met.panicTotal.Inc()
				outcome = "panic"
				items[i].Answers = nil
				items[i].Err = fmt.Errorf("%w harvesting %q: panic: %v", ErrPanic, questions[i], r)
			}
			e.met.tracer.Finish(&sp, time.Since(taskStart), questions[i], outcome)
		}()
		if err := ctx.Err(); err != nil {
			outcome = "timeout"
			items[i].Err = err
			return
		}
		answers, _, qtm, err := e.harvestFn(questions[i])
		sp.Observe(obs.StageNLPAnalyse, qtm.Analyse)
		sp.Observe(obs.StageIRSearch, qtm.Search)
		sp.Observe(obs.StageQAExtract, qtm.Extract)
		items[i].Answers = answers
		items[i].Err = err
		if err != nil {
			outcome = "error"
		}
	})
	if err := ctx.Err(); err != nil {
		// Out of time: report what was extracted but commit nothing — a
		// client that saw a 504 must be able to retry without wondering
		// whether half its batch already landed.
		e.met.timeoutTotal.Inc()
		return items, nil, err
	}

	if e.loader == nil {
		if e.readOnlyReplica.Load() {
			return items, nil, ErrReadOnlyReplica
		}
		return items, nil, fmt.Errorf("engine: no loader configured, cannot feed the warehouse")
	}
	batches := make([][]qa.Answer, len(items))
	for i := range items {
		if items[i].Err == nil {
			batches[i] = items[i].Answers
		}
	}
	// The commit is the only engine path that mutates the warehouse;
	// commitMu keeps it atomic with respect to snapshot exports
	// (persist.go) without touching the ask paths.
	e.commitMu.Lock()
	reports, total, touched, err := e.loader.LoadAll(batches)
	e.commitMu.Unlock()
	if err != nil {
		if errors.Is(err, store.ErrWAL) {
			// The store refused to ack a journal append: memory and log
			// can no longer be trusted to agree after a crash. Latch
			// read-only; asks keep serving, further feeds get 503.
			e.enterDegraded(err.Error())
			err = fmt.Errorf("%w (cause: %w)", ErrDegraded, err)
		}
		return items, nil, err
	}
	for i := range items {
		items[i].Loaded = reports[i].Loaded
		items[i].Skipped = reports[i].Skipped
	}
	// The generation counts committed feeds (observability); the cache
	// reacts only to what the feed actually touched. A feed whose every
	// record deduplicated away changed nothing a cached answer could
	// depend on, so nothing is evicted and the epoch stands.
	e.generation.Add(1)
	if e.fullFlush {
		e.cache.flush()
	} else if tags := feedTags(touched); len(tags) > 0 {
		e.cache.invalidate(tags)
	}
	return items, total, nil
}

// Stats is the /healthz payload: engine sizing, cache effectiveness, the
// warehouse-feed generation, the served corpus and warehouse sizes, and
// — when a durable store is wired — the recovery and snapshot
// observability fields the ops side watches after a restart.
type Stats struct {
	Workers int `json:"workers"`
	// CacheEnabled distinguishes a disabled cache (capacity <= 0) from a
	// cold one: a disabled cache reports zero hits AND zero misses, so
	// the ops side never reads a perpetual 0% hit rate off a cache that
	// does not exist.
	CacheEnabled bool   `json:"cache_enabled"`
	CacheEntries int    `json:"cache_entries"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	// CacheEvicted counts entries removed by selective feed invalidation
	// (full flushes reset the table wholesale and are not counted here).
	CacheEvicted uint64 `json:"cache_evicted"`
	Generation   uint64 `json:"generation"`
	Documents    int    `json:"documents"`
	Passages     int    `json:"passages"`

	// Resilience observability (gate.go, degrade.go): the serving state
	// ("ready" or "degraded"), current admitted requests, and the
	// lifetime shed / deadline-expiry / recovered-panic counts.
	State          string `json:"state"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Inflight       int64  `json:"inflight"`
	ShedTotal      uint64 `json:"shed_total"`
	TimeoutTotal   uint64 `json:"timeout_total"`
	PanicTotal     uint64 `json:"panic_total"`

	// Warehouse sizing (present when a SnapshotSource is wired).
	Members  int `json:"members,omitempty"`
	FactRows int `json:"fact_rows,omitempty"`

	// Durability observability (present when a store is wired).
	Durable      bool   `json:"durable,omitempty"`
	WALSeq       uint64 `json:"wal_seq,omitempty"`
	WALErrors    uint64 `json:"wal_errors,omitempty"`    // journal appends refused by the store
	WALReplayed  int    `json:"wal_replayed,omitempty"`  // records replayed at boot
	Recovered    bool   `json:"recovered,omitempty"`     // boot loaded a snapshot
	LastSnapshot string `json:"last_snapshot,omitempty"` // RFC 3339; "" = none this run

	// Shards reports per-shard replication positions (present in sharded
	// deployments; see SetShardStats). On a follower each entry carries
	// the apply lag behind the leader's WAL.
	Shards []ShardStat `json:"shards,omitempty"`
}

// Stats snapshots the engine's serving statistics.
func (e *Engine) Stats() Stats {
	hits, misses, evicted := e.cache.counters()
	st := Stats{
		Workers:      e.workers,
		CacheEnabled: e.cache.enabled(),
		CacheEntries: e.cache.len(),
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheEvicted: evicted,
		Generation:   e.generation.Load(),
		State:        "ready",
		Inflight:     e.gate.Inflight(),
		ShedTotal:    e.gate.Shed(),
		TimeoutTotal: e.met.timeoutTotal.Value(),
		PanicTotal:   e.met.panicTotal.Value(),
	}
	if degraded, reason := e.Degraded(); degraded {
		st.State = "degraded"
		st.DegradedReason = reason
	}
	if e.index != nil {
		st.Documents = e.index.DocCount()
		st.Passages = e.index.PassageCount()
	}
	src, durable, recovery := e.durability()
	if src != nil {
		st.Members, st.FactRows = src.StateCounts()
	}
	if durable != nil {
		st.Durable = true
		st.WALSeq = durable.Seq()
		st.WALErrors = durable.WALErrors()
	}
	if snap := e.getSnapshotter(); snap != nil {
		st.Members, st.FactRows = snap.StateCounts()
		st.Durable = true
		st.WALSeq = snap.Seq()
		st.WALErrors = snap.WALErrors()
	}
	if recovery != nil {
		st.Recovered = recovery.Recovered
		st.WALReplayed = recovery.WALReplayed
	}
	if ns := e.lastSnapshot.Load(); ns != 0 {
		st.LastSnapshot = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	if fn := e.shardStats.Load(); fn != nil {
		st.Shards = (*fn)()
	}
	return st
}

// RetryAfterSeconds derives the Retry-After hint for shed (429)
// responses from the current load instead of a fixed constant: a shed
// request can expect a slot once the work ahead of it — everything
// admitted plus everything queued — has drained, and the gate drains at
// most MaxInflight requests per ask deadline. The result is clamped to
// [1s, 60s]: never "retry immediately" while saturated, never a backoff
// longer than any client should blindly honour.
func (e *Engine) RetryAfterSeconds() int {
	capacity := e.gate.Capacity()
	if capacity <= 0 {
		return 1 // admission control disabled; shedding cannot persist
	}
	ahead := e.gate.Inflight() + e.gate.Queued()
	waves := (ahead + int64(capacity) - 1) / int64(capacity)
	per := e.askTimeout
	if per <= 0 {
		per = DefaultAskTimeout
	}
	secs := int64(time.Duration(waves) * per / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return int(secs)
}

// forEach runs fn(0..n-1) on the worker pool and waits for completion.
func (e *Engine) forEach(n int, fn func(i int)) {
	if n == 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}
