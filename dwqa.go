// Package dwqa is the public facade of the reproduction of "The benefits
// of the interaction between Data Warehouses and Question Answering"
// (Ferrández & Peral, EDBT 2010).
//
// The paper proposes the first model integrating a data warehouse (DW)
// with a question answering (QA) system through a shared ontology, in
// five semi-automatic steps:
//
//  1. derive a domain ontology from the DW's UML multidimensional model,
//  2. feed it with the DW contents (instances),
//  3. merge it into the QA system's upper ontology (WordNet),
//  4. tune the QA system to the new query types,
//  5. let the QA system feed the DW with answers extracted from the web.
//
// The facade exposes the integration pipeline and the result types needed
// to use it; the substrates (warehouse engine, WordNet, IR-n passage
// retrieval, the AliQAn QA system, the synthetic web corpus) live in
// internal packages and are documented in DESIGN.md.
//
// Quick start:
//
//	p, err := dwqa.New(dwqa.DefaultConfig())
//	if err != nil { ... }
//	if err := p.RunAll(); err != nil { ... }          // the five steps
//	res, err := p.Ask("What is the weather like in January of 2004 in El Prat?")
//	tab, err := p.AskOLAP("Average temperature in Barcelona by month")
//	report, err := dwqa.AnalyzeSalesWeather(p)        // the BI payoff
//
// The integration runs in both directions: Step 5 lets QA feed the
// warehouse, and the analytic path (AskOLAP, or any Ask* call — questions
// are classified automatically) lets users query the warehouse in natural
// language through compiled OLAP plans.
//
// One Pipeline type serves every topology. A single node is a 1-shard
// cluster: New builds one, NewSharded builds N shards whose answers are
// byte-identical to it, OpenSharded boots a durable writer from a data
// directory and OpenFollower a read replica of one.
package dwqa

import (
	"fmt"
	"net/http"

	"dwqa/internal/bi"
	"dwqa/internal/core"
	"dwqa/internal/engine"
	"dwqa/internal/nl2olap"
	"dwqa/internal/qa"
	"dwqa/internal/shard"
	"dwqa/internal/store"
)

// Config parameterises a pipeline: seed, covered period, QA ablation
// switches and extraction options. See the field docs in internal/core.
type Config = core.Config

// Pipeline is the five-step integration. Construct with New, run the
// steps (or RunAll), then Ask questions and analyse the enriched DW.
type Pipeline = core.Pipeline

// QAConfig holds the QA-side switches (UseOntology, UseIRFilter,
// TopPassages, MinScore).
type QAConfig = qa.Config

// Result is the outcome of one question: analysis, passages, candidates
// and the accepted answer.
type Result = qa.Result

// Answer is an extracted answer: for measure questions, the structured
// (value – unit – date – location – web page) record of the paper.
type Answer = qa.Answer

// Trace reproduces the paper's Table 1 for one question.
type Trace = qa.Trace

// BIReport is the sales×weather analysis over the enriched warehouse.
type BIReport = bi.Report

// Engine is the concurrent QA serving layer over a pipeline: worker-pool
// batch execution (AskAll, HarvestAll) with deterministic result
// ordering, request coalescing and an LRU answer cache invalidated on
// every warehouse feed. Obtain one with Pipeline.Engine() (after Step 4);
// batch questions with Pipeline.AskAll.
type Engine = engine.Engine

// EngineConfig sizes the serving layer (worker count, answer-cache
// capacity, admission and deadline limits); set it on Config.Engine
// before New. A limit ≤ 0 is off, so the zero value serves unlimited.
type EngineConfig = engine.Config

// AskResult is one slot of a batched AskAll call: the result (or error)
// for the question at the same input position. Analytic questions carry
// their OLAP answer in the OLAP field instead of a factoid Result.
type AskResult = engine.AskResult

// Translator compiles natural-language analytical questions ("average
// temperature in Barcelona by month") into validated OLAP query plans
// over the warehouse, using the schema metadata and the Step 2/3 ontology
// lexicon. Obtain the scenario's with Pipeline.Translator(); Ask/AskAll
// dispatch through it automatically.
type Translator = nl2olap.Translator

// OLAPAnswer is one executed analytic question: the compiled, validated
// plan plus its result table.
type OLAPAnswer = nl2olap.Answer

// ErrFactoid reports that a question offered to the analytic path belongs
// to the factoid QA modules instead (test with errors.Is).
var ErrFactoid = nl2olap.ErrFactoid

// HarvestResult is one question's outcome of a batched Step 5 harvest.
type HarvestResult = engine.HarvestResult

// Serving resilience defaults (engine package, DESIGN.md §8): the
// admission-gate sizing and per-request deadlines `dwqa serve` applies.
const (
	DefaultMaxInflight    = engine.DefaultMaxInflight
	DefaultMaxQueue       = engine.DefaultMaxQueue
	DefaultAskTimeout     = engine.DefaultAskTimeout
	DefaultHarvestTimeout = engine.DefaultHarvestTimeout
)

// ErrShed reports a request rejected by the admission gate (HTTP 429);
// ErrDegraded a feed refused because the engine latched degraded
// read-only mode after a WAL failure (HTTP 503). Test with errors.Is.
var (
	ErrShed     = engine.ErrShed
	ErrDegraded = engine.ErrDegraded
)

// New builds a pipeline over the Last Minute Sales scenario: the Figure 1
// schema, a populated warehouse, the synthetic web corpus and the passage
// index. No integration step has run yet.
func New(cfg Config) (*Pipeline, error) { return core.NewPipeline(cfg) }

// NewSharded is New over n shards (DESIGN.md §10): fact columns and the
// passage index partition by city hash, dimensions replicate, and
// scatter/gather serving answers byte-identically to one node — which
// is the 1-shard case.
func NewSharded(cfg Config, shards int) (*Pipeline, error) {
	return core.NewShardedPipeline(cfg, shards)
}

// RecoveryInfo summarises what OpenSharded recovered from a data
// directory: the snapshots' sequence, how many write-ahead-log records
// were replayed on top of them, and whether a torn log tail was
// repaired.
type RecoveryInfo = store.RecoveryInfo

// OpenSharded boots a durable pipeline over n shards from a data
// directory (see DESIGN.md §7): one snapshot/WAL store per shard, kept
// in the directory itself when n is 1. With usable snapshots present
// the warehouse, passage index and merged ontology are restored by bulk
// load and the WAL tails replayed — no re-indexing, no re-harvesting;
// otherwise the scenario is integrated fresh (steps 1-4) and published
// as the initial snapshots. Either way the returned pipeline journals
// every subsequent feed, and its Engine supports
// SnapshotTo/SnapshotEvery. Close Durable() when done, ideally after a
// final snapshot.
func OpenSharded(cfg Config, dataDir string, shards int) (*Pipeline, *RecoveryInfo, error) {
	return core.OpenShardedPipeline(cfg, dataDir, shards)
}

// DefaultConfig is the paper's evaluated configuration (ontology on, IR
// filter on, seed 42, January-March 2004).
func DefaultConfig() Config { return core.DefaultConfig() }

// OpenFollower opens a leader's data directory as a read replica: it
// serves from the shipped snapshots and tails each shard's WAL
// (Pipeline.StartTailing) while the leader keeps feeding. The replica's
// engine refuses feeds and reports per-shard replication lag in /healthz.
func OpenFollower(cfg Config, dataDir string, shards int) (*Pipeline, error) {
	return core.OpenShardedFollower(cfg, dataDir, shards)
}

// DetectShards reports how many shards a cluster directory was created
// with (0 for a fresh path or the single-node layout of one shard), so
// callers can reopen or follow a cluster without restating the shard
// count.
func DetectShards(dataDir string) (int, error) {
	return shard.DetectShards(store.OS(), dataDir)
}

// AnalyzeSalesWeather runs the scenario's BI analysis on a pipeline whose
// Step 5 has fed the Weather fact: it returns the temperature ranges that
// increase last-minute sales and the pricing recommendations.
func AnalyzeSalesWeather(p *Pipeline) (*BIReport, error) {
	if p.Warehouse == nil {
		return nil, fmt.Errorf("dwqa: the BI analysis reads one warehouse; this pipeline has %d shards", p.Cluster.Shards())
	}
	return bi.Analyze(p.Warehouse, bi.DefaultJoinSpec(), bi.Options{})
}

// NewServer returns the HTTP JSON API (POST /ask, /ask/batch, /harvest;
// GET /trace, /healthz, /metrics) over a pipeline's serving engine —
// what `dwqa serve` listens with. NewServer serves quietly;
// NewServerWith takes logging options (access log, custom Logf).
func NewServer(e *Engine) http.Handler { return engine.NewServer(e) }

// ServerOptions configures the HTTP façade's access logging.
type ServerOptions = engine.ServerOptions

// NewServerWith is NewServer with explicit logging options.
func NewServerWith(e *Engine, opts ServerOptions) http.Handler {
	return engine.NewServerWith(e, opts)
}
