package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dwqa/internal/dw"
	"dwqa/internal/engine"
	"dwqa/internal/etl"
	"dwqa/internal/ir"
	"dwqa/internal/mdm"
	"dwqa/internal/merge"
	"dwqa/internal/nl2olap"
	"dwqa/internal/obs"
	"dwqa/internal/ontology"
	"dwqa/internal/qa"
	"dwqa/internal/shard"
	"dwqa/internal/store"
	"dwqa/internal/uml2onto"
	"dwqa/internal/webcorpus"
	"dwqa/internal/wordnet"
)

// Config parameterises a pipeline run.
type Config struct {
	Seed   int64
	Year   int
	Months []int

	// ScaleFactor multiplies the synthetic sales demand (0 or 1 keeps the
	// paper's scenario size; large values generate 100k+ fact rows for the
	// scaling benchmarks — see PopulateScenarioScaled).
	ScaleFactor int

	// QA holds the ablation switches forwarded to the QA system.
	QA qa.Config

	// TableAware selects the future-work table pre-processing when
	// extracting text from web pages (experiment E-TBL).
	TableAware bool

	// Corpus overrides the web corpus configuration; zero value uses the
	// scenario default derived from Year/Months.
	Corpus *webcorpus.Config

	// HarvestPassages widens Module 2's passage budget during Step 5
	// harvesting (a month of daily records needs more passages than a
	// single-answer question).
	HarvestPassages int

	// PassageSize overrides the IR-n sentence-window size (0 keeps the
	// paper's eight consecutive sentences, footnote 6). The E-PSIZE
	// ablation sweeps it.
	PassageSize int

	// Engine sizes the concurrent serving layer returned by
	// Pipeline.Engine (worker count, answer-cache capacity, admission
	// and deadline limits). The zero value selects the engine sizing
	// defaults and leaves every limit off — a limit ≤ 0 is off at every
	// layer — so library callers, whose batches are as large as they
	// want, are never shed or timed out. Serving limits are the serving
	// command's decision (cmd/dwqa serve sets the Default* values).
	Engine engine.Config
}

// DefaultConfig is the paper's evaluated configuration: everything on.
func DefaultConfig() Config {
	return Config{
		Seed:            42,
		Year:            2004,
		Months:          []int{1, 2, 3},
		QA:              qa.DefaultConfig(),
		HarvestPassages: 150,
	}
}

// Pipeline holds every system of the integration: the warehouse side, the
// QA side, and the shared ontology between them. Steps must run in order;
// RunAll does so.
//
// The warehouse fact columns and the passage index live in a
// shard.Cluster (DESIGN.md §10). The single-node deployment is the
// 1-shard cluster, which hands every call straight to its one node; with
// N shards facts and documents partition by city hash, dimensions
// replicate, and answers stay byte-identical to N = 1.
//
// Once Step 4 has run, Ask, AskAll and Step5FeedWarehouse are safe to
// call concurrently from any number of goroutines — the serving scenario
// of answering user questions while a feed refreshes the warehouse. The
// setup steps themselves (1-4) are not concurrent with each other.
type Pipeline struct {
	Config Config

	Schema  *mdm.Schema
	Cluster *shard.Cluster
	Corpus  *webcorpus.Corpus
	Lexicon *wordnet.WordNet

	// Warehouse and Index name shard 0's warehouse and index on a
	// 1-shard leader or in-memory pipeline; they are nil on a follower
	// (whose reloads swap the node) and when N > 1.
	Warehouse *dw.Warehouse
	Index     *ir.Index

	Ontology    *ontology.Ontology // created by Step 1
	MergeReport *merge.Report      // created by Step 3
	QA          *qa.System         // created by Step 4
	Loader      *etl.Loader        // created by Step 5
	LoadReport  *etl.Report        // result of Step 5

	step atomic.Int32 // highest completed step

	mu        sync.Mutex          // guards eng/trans/Loader creation and LoadReport writes
	eng       *engine.Engine      // lazily built by Engine()
	trans     *nl2olap.Translator // lazily built by Translator()
	transOnto *ontology.Ontology  // the lexicon trans was built over

	durable  *shard.Durable      // leader persistence (durable.go); nil in memory or on a follower
	follower *shard.Follower     // replica tail; nil on the writer
	recovery *store.RecoveryInfo // what a durable open recovered; nil in memory
}

// ScenarioRoutes is the fact routing for the Figure 1 schema: weather
// rows hash by their City coordinate, sales rows by the city their
// Destination airport rolls up to — so one city's weather and inbound
// sales co-locate on one shard.
func ScenarioRoutes() map[string]shard.Route {
	return map[string]shard.Route{
		"Weather":         {Role: "City", Level: "City"},
		"LastMinuteSales": {Role: "Destination", Level: "City"},
	}
}

// NewPipeline builds the scenario environment on a single node: the
// Figure 1 schema, the populated warehouse, the web corpus and the
// passage index (the indexation phase of Figure 3). No integration step
// has run yet.
func NewPipeline(cfg Config) (*Pipeline, error) { return NewShardedPipeline(cfg, 1) }

// NewShardedPipeline builds the scenario environment over N shards:
// populated cluster, web corpus, partitioned passage index.
func NewShardedPipeline(cfg Config, shards int) (*Pipeline, error) {
	p, err := newShell(normalizeConfig(cfg), shards)
	if err != nil {
		return nil, err
	}
	cfg = p.Config
	if err := PopulateScenarioScaled(p.Cluster, cfg.Year, cfg.Months, cfg.Seed, cfg.ScaleFactor); err != nil {
		return nil, fmt.Errorf("core: populating scenario: %w", err)
	}
	if err := indexCorpus(p.Cluster, p.Corpus, cfg.TableAware); err != nil {
		return nil, fmt.Errorf("core: indexing corpus: %w", err)
	}
	p.bindNode()
	return p, nil
}

// newShell builds a pipeline over an empty cluster with the scenario
// schema, routes and the config's index geometry, plus the cheap
// synthetic pieces (corpus metadata, lexicon) every boot rebuilds the
// same way.
func newShell(cfg Config, shards int) (*Pipeline, error) {
	schema := Figure1Schema()
	var opts []ir.Option
	if cfg.PassageSize > 0 {
		opts = append(opts, ir.WithPassageSize(cfg.PassageSize))
	}
	cl, err := shard.NewCluster(schema, shards, ScenarioRoutes(), opts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Pipeline{
		Config:  cfg,
		Schema:  schema,
		Cluster: cl,
		Corpus:  webcorpus.Build(corpusConfig(cfg)),
		Lexicon: wordnet.Seed(),
	}, nil
}

// bindNode points Warehouse and Index at a 1-shard cluster's node. Call
// it once the node is final (after any restore installed it).
func (p *Pipeline) bindNode() {
	if p.Cluster.Shards() == 1 {
		node := p.Cluster.Node(0)
		p.Warehouse, p.Index = node.WH, node.IX
	}
}

// indexCorpus feeds the corpus into the cluster in publication order —
// ordinals follow it, which is what keeps federated ranking identical
// to a single index. Weather pages route by their subject city
// (co-located with the city's facts); distractor pages, which have no
// subject, route by URL.
func indexCorpus(cl *shard.Cluster, corpus *webcorpus.Corpus, tableAware bool) error {
	docs := corpus.Documents(tableAware)
	for i, doc := range docs {
		key := doc.URL
		if i < len(corpus.Pages) && corpus.Pages[i].URL == doc.URL && len(corpus.Pages[i].Gold) > 0 {
			key = corpus.Pages[i].Gold[0].City
		}
		if err := cl.AddDocument(doc, key); err != nil {
			return err
		}
	}
	return nil
}

// corpusConfig derives the web-corpus configuration from a pipeline
// config, so a recovered boot rebuilds exactly the corpus metadata the
// index was built over.
func corpusConfig(cfg Config) webcorpus.Config {
	ccfg := webcorpus.DefaultConfig()
	ccfg.Year = cfg.Year
	ccfg.Months = cfg.Months
	ccfg.Seed = cfg.Seed
	if cfg.Corpus != nil {
		ccfg = *cfg.Corpus
	}
	return ccfg
}

// normalizeConfig fills the config defaults every boot relies on.
func normalizeConfig(cfg Config) Config {
	if cfg.Year == 0 {
		cfg.Year = 2004
	}
	if len(cfg.Months) == 0 {
		cfg.Months = []int{1, 2, 3}
	}
	if cfg.HarvestPassages <= 0 {
		cfg.HarvestPassages = 40
	}
	return cfg
}

func (p *Pipeline) require(step int) error {
	if int(p.step.Load()) < step {
		return fmt.Errorf("core: step %d requires step %d to have run", step+1, step)
	}
	return nil
}

// Step1DeriveOntology obtains the domain ontology from the UML
// multidimensional model (Figure 1 → Figure 2).
func (p *Pipeline) Step1DeriveOntology() error {
	o, err := uml2onto.Transform(p.Schema)
	if err != nil {
		return err
	}
	p.Ontology = o
	p.step.Store(1)
	return nil
}

// Step2FeedOntology feeds the ontology with the contents of the DW: every
// airport member becomes an Airport instance (with its city), every city a
// City instance, exactly as the paper enriches "Airport" with "JFK",
// "John Wayne" and "La Guardia".
func (p *Pipeline) Step2FeedOntology() error {
	if err := p.require(1); err != nil {
		return err
	}
	o, wh := p.Ontology, p.Cluster
	for _, name := range wh.Members("Airport", "Airport") {
		city, err := wh.ParentName("Airport", "Airport", name)
		if err != nil {
			return fmt.Errorf("core: step 2: %w", err)
		}
		key, _ := wh.MemberKey("Airport", "Airport", name)
		m, _ := wh.Member("Airport", "Airport", key)
		var aliases []string
		if alias := m.Attrs["Alias"]; alias != "" {
			aliases = append(aliases, alias)
		}
		if iata := m.Attrs["IATA"]; iata != "" && iata != name {
			aliases = append(aliases, iata)
		}
		o.AddInstance("Airport", ontology.Instance{
			Name:       name,
			Aliases:    aliases,
			Properties: map[string]string{"locatedIn": city},
		})
	}
	for _, city := range wh.Members("Airport", "City") {
		country, err := wh.ParentName("Airport", "City", city)
		if err != nil {
			return fmt.Errorf("core: step 2: %w", err)
		}
		o.AddInstance("City", ontology.Instance{
			Name:       city,
			Properties: map[string]string{"locatedIn": country},
		})
	}
	for _, country := range wh.Members("Airport", "Country") {
		o.AddInstance("Country", ontology.Instance{Name: country})
	}
	p.step.Store(2)
	return nil
}

// Step3MergeUpperOntology merges the enriched domain ontology into the
// QA system's upper ontology (WordNet). With QA.UseOntology off (the
// E-ONTO ablation) the merge is skipped and the lexicon stays untuned.
func (p *Pipeline) Step3MergeUpperOntology() error {
	if err := p.require(2); err != nil {
		return err
	}
	rep := &merge.Report{Mapping: map[string]string{}}
	if p.Config.QA.UseOntology {
		var err error
		if rep, err = merge.Merge(p.Ontology, p.Lexicon); err != nil {
			return err
		}
	}
	p.MergeReport = rep
	p.step.Store(3)
	return nil
}

// TemperatureAxioms returns the Step 4 axiomatic knowledge: a temperature
// is a number followed by the scale (ºC or F), valid in [-90, 60] ºC, with
// the Celsius↔Fahrenheit conversion formula.
func TemperatureAxioms() []ontology.Axiom {
	return []ontology.Axiom{
		{Concept: "Temperature", Kind: ontology.AxiomValueFormat, Units: []string{"ºC", "F"}},
		{Concept: "Temperature", Kind: ontology.AxiomValueRange, Unit: "C", Min: -90, Max: 60},
		{Concept: "Temperature", Kind: ontology.AxiomUnitConversion, FromUnit: "C", ToUnit: "F", Scale: 1.8, Offset: 32},
	}
}

// Step4TuneQA tunes the QA system to the new query types: the Temperature
// concept receives its axioms and the weather question patterns are
// installed. Axiom re-adds are no-ops, so it is safe on a restored
// ontology.
func (p *Pipeline) Step4TuneQA() error {
	if err := p.require(3); err != nil {
		return err
	}
	for _, a := range TemperatureAxioms() {
		if err := p.Ontology.AddAxiom(a); err != nil {
			return err
		}
	}
	sys, err := p.weatherSystem(p.Config.QA)
	if err != nil {
		return err
	}
	p.QA = sys
	p.step.Store(4)
	return nil
}

// weatherSystem builds a QA system over the cluster with the weather
// patterns installed.
func (p *Pipeline) weatherSystem(qcfg qa.Config) (*qa.System, error) {
	sys, err := qa.NewSystem(p.Lexicon, qaOntology(p.Config, p.Ontology), p.Cluster, qcfg)
	if err != nil {
		return nil, err
	}
	sys.TunePatterns(qa.WeatherPatterns()...)
	return sys, nil
}

// qaOntology returns the ontology handed to QA systems: nil when the
// ontology ablation is on keeps even axiom access away.
func qaOntology(cfg Config, onto *ontology.Ontology) *ontology.Ontology {
	if !cfg.QA.UseOntology {
		return nil
	}
	return onto
}

// WeatherQuestions generates the Step 5 query workload: one month-level
// weather question per (destination airport, covered month), phrased like
// the paper's examples.
func (p *Pipeline) WeatherQuestions() []string { return weatherQuestions(p.Config, p.Corpus) }

// weatherQuestions is the Step 5 workload of a configuration and its
// corpus.
func weatherQuestions(cfg Config, corpus *webcorpus.Corpus) []string {
	var qs []string
	for _, a := range ScenarioAirports {
		if _, ok := corpus.Weather[a.City]; !ok {
			continue
		}
		for _, month := range cfg.Months {
			qs = append(qs, fmt.Sprintf("What is the weather like in %s of %d in %s?",
				time.Month(month), cfg.Year, a.Name))
		}
	}
	return qs
}

// StepResult carries per-question Step 5 outcomes.
type StepResult struct {
	Question string
	Answers  int
}

// Step5FeedWarehouse runs the harvest questions through the QA system and
// loads every well-formed (temperature – date – city – web page) record
// into the Weather fact. The harvest runs on the serving engine's worker
// pool: answers are extracted concurrently per question and committed in
// one batch load, in question order, so the outcome matches the
// sequential harvest-and-load loop exactly.
func (p *Pipeline) Step5FeedWarehouse(questions []string) ([]StepResult, error) {
	eng, err := p.Engine()
	if err != nil {
		return nil, err
	}
	if len(questions) == 0 {
		// An explicitly empty workload feeds nothing (the engine-level
		// default-workload fallback is for the serving API only).
		p.mu.Lock()
		p.LoadReport = &etl.Report{}
		p.mu.Unlock()
		p.step.Store(5)
		return nil, nil
	}
	items, total, err := eng.HarvestAll(context.Background(), questions)
	if err != nil {
		return nil, err
	}
	// The batch is committed at this point: record what loaded even if a
	// question failed, so the warehouse state stays observable.
	p.mu.Lock()
	p.LoadReport = total
	p.mu.Unlock()
	var results []StepResult
	for _, it := range items {
		if it.Err != nil {
			return nil, fmt.Errorf("core: step 5 question %q: %w", it.Question, it.Err)
		}
		results = append(results, StepResult{Question: it.Question, Answers: it.Loaded})
	}
	p.step.Store(5)
	return results, nil
}

// Engine returns the concurrent QA serving layer over the tuned system
// (requires Step 4), creating it on first call. The engine persists
// across Step 5 runs — its loader dedups each feed against the
// warehouse's provenance, which makes repeated feeds idempotent — and its
// answer cache is invalidated by every feed. On a follower the engine has no loader — feeds are refused with
// a clear error — and its per-shard stats report replication lag
// instead of the writer's sequences.
func (p *Pipeline) Engine() (*engine.Engine, error) {
	if err := p.require(4); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.eng != nil {
		return p.eng, nil
	}
	var loader *etl.Loader
	if p.follower == nil {
		if p.Loader == nil {
			l, err := etl.NewLoader(p.Ontology, p.Cluster, "Weather", "City", "Date")
			if err != nil {
				return nil, err
			}
			p.Loader = l
		}
		loader = p.Loader
	}
	harvester, err := p.NewHarvester()
	if err != nil {
		return nil, err
	}
	trans, err := p.translatorLocked()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(p.Config.Engine, p.QA, harvester, loader, p.Cluster)
	if err != nil {
		return nil, err
	}
	eng.SetDefaultHarvest(p.WeatherQuestions())
	reg := eng.Metrics()
	p.Cluster.SetMetrics(dw.Metrics{
		RowsScanned: reg.Counter("dwqa_dw_rows_scanned_total",
			"Fact rows the OLAP scan visited."),
		ZonesPruned: reg.Counter("dwqa_dw_zones_pruned_total",
			"Fact-row zones the OLAP scan skipped because no filter could match them."),
	})
	// The analytic path: Ask/AskAll classify every question and dispatch
	// analytic ones to the compiled OLAP engine instead of the factoid
	// modules (DESIGN.md §6).
	eng.SetTranslator(trans)
	if p.Cluster.Shards() > 1 {
		// Per-shard fan-out latency lands in the engine's stage
		// histograms; a 1-shard cluster has no scatter round to time.
		p.Cluster.SetFanoutHistogram(eng.StageHistogram(obs.StageShardFanout))
	}
	if d := p.durable; d != nil {
		eng.SetSnapshotter(d, p.recovery)
		met := store.Metrics{
			Append: eng.StageHistogram(obs.StageWALAppend),
			Fsync:  eng.WALFsyncHistogram(),
		}
		for _, st := range d.Stores() {
			st.SetMetrics(met)
		}
		eng.SetShardStats(func() []engine.ShardStat {
			seqs := d.ShardSeqs()
			out := make([]engine.ShardStat, len(seqs))
			for i, s := range seqs {
				out[i] = engine.ShardStat{Shard: i, Seq: s}
			}
			return out
		})
	}
	if f := p.follower; f != nil {
		eng.SetReadOnlyReplica()
		eng.SetShardStats(func() []engine.ShardStat {
			stats := f.Stats()
			out := make([]engine.ShardStat, len(stats))
			for i, s := range stats {
				out[i] = engine.ShardStat{Shard: s.Shard, Seq: s.Seq, Lag: s.Lag}
			}
			return out
		})
	}
	p.eng = eng
	return eng, nil
}

// NewHarvester builds the Step 5 harvesting system: the tuned QA system
// with the wide harvest passage budget (a month of daily records needs
// more passages than a single-answer question). The serving engine uses
// this recipe, so /harvest runs the system the pipeline feeds with.
func (p *Pipeline) NewHarvester() (*qa.System, error) {
	qcfg := p.Config.QA
	qcfg.TopPassages = p.Config.HarvestPassages
	return p.weatherSystem(qcfg)
}

// AskAll answers a batch of questions concurrently on the serving
// engine's worker pool (requires Step 4). Results are in input order;
// for every distinct surface form the result matches what a sequential
// Ask call would return, and questions that normalise identically share
// the first form's result (see engine.NormalizeQuestion). Previously
// answered questions are served from the engine's cache.
func (p *Pipeline) AskAll(questions []string) ([]engine.AskResult, error) {
	eng, err := p.Engine()
	if err != nil {
		return nil, err
	}
	return eng.AskAll(context.Background(), questions), nil
}

// Integrate runs the setup steps (1-4) of the five-step model, leaving
// the pipeline ready to serve over the unfed warehouse.
func (p *Pipeline) Integrate() error {
	if err := p.Step1DeriveOntology(); err != nil {
		return err
	}
	if err := p.Step2FeedOntology(); err != nil {
		return err
	}
	if err := p.Step3MergeUpperOntology(); err != nil {
		return err
	}
	return p.Step4TuneQA()
}

// RunAll executes the five steps with the default question workload.
func (p *Pipeline) RunAll() error {
	if err := p.Integrate(); err != nil {
		return err
	}
	_, err := p.Step5FeedWarehouse(p.WeatherQuestions())
	return err
}

// Ask answers one question through the tuned QA system (requires
// Step 4). This is the raw factoid path; the serving surfaces (AskAll,
// AskOLAP, the HTTP API) classify each question first and dispatch
// analytic ones to the compiled OLAP engine instead.
func (p *Pipeline) Ask(question string) (*qa.Result, error) {
	if err := p.require(4); err != nil {
		return nil, err
	}
	return p.QA.Answer(question)
}

// Table1 reproduces the paper's Table 1 trace for a question (by default
// the paper's own query).
func (p *Pipeline) Table1(question string) (qa.Trace, error) {
	if question == "" {
		question = "What is the weather like in January of 2004 in El Prat?"
	}
	res, err := p.Ask(question)
	if err != nil {
		return qa.Trace{}, err
	}
	return res.Trace(), nil
}

// Summary renders a human-readable pipeline summary.
func (p *Pipeline) Summary() string {
	var b strings.Builder
	n := p.Cluster.Shards()
	fmt.Fprintf(&b, "Pipeline (seed %d, year %d, months %v", p.Config.Seed, p.Config.Year, p.Config.Months)
	if n > 1 {
		fmt.Fprintf(&b, ", %d shards", n)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  warehouse: %d sales rows, %d weather rows\n",
		p.Cluster.FactCount("LastMinuteSales"), p.Cluster.FactCount("Weather"))
	fmt.Fprintf(&b, "  corpus: %d pages, %d passages indexed\n", len(p.Corpus.Pages), p.Cluster.PassageCount())
	for i := 0; n > 1 && i < n; i++ {
		node := p.Cluster.Node(i)
		_, rows := node.WH.Counts()
		fmt.Fprintf(&b, "  shard %d: %d fact rows, %d docs, %d passages\n",
			i, rows, node.IX.DocCount(), node.IX.PassageCount())
	}
	if p.Ontology != nil {
		fmt.Fprintf(&b, "  ontology: %d concepts, %d instances\n", p.Ontology.Size(), p.Ontology.InstanceCount())
	}
	if p.MergeReport != nil {
		fmt.Fprintf(&b, "  %s\n", p.MergeReport)
	}
	p.mu.Lock()
	load := p.LoadReport
	p.mu.Unlock()
	if load != nil {
		fmt.Fprintf(&b, "  %s\n", load)
	}
	return b.String()
}
