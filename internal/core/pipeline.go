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
	// defaults but DISABLES admission control and default deadlines:
	// the pipeline is the library surface, where batches are as large
	// as the caller wants, and serving limits are the serving command's
	// decision (cmd/dwqa serve sets them from flags). Set the fields
	// explicitly to opt limits in.
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
// Once Step 4 has run, Ask, AskAll and Step5FeedWarehouse are safe to
// call concurrently from any number of goroutines — the serving scenario
// of answering user questions while a feed refreshes the warehouse. The
// setup steps themselves (1-4) are not concurrent with each other.
type Pipeline struct {
	Config Config

	Schema    *mdm.Schema
	Warehouse *dw.Warehouse
	Corpus    *webcorpus.Corpus
	Index     *ir.Index
	Lexicon   *wordnet.WordNet

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

	st       *store.Store        // durable store (durable.go); nil in-memory
	recovery *store.RecoveryInfo // what OpenPipeline recovered; nil in-memory
}

// NewPipeline builds the scenario environment: the Figure 1 schema, the
// populated warehouse, the web corpus and the passage index (the
// indexation phase of Figure 3). No integration step has run yet.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg = normalizeConfig(cfg)
	schema := Figure1Schema()
	wh, err := dw.New(schema)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := PopulateScenarioScaled(wh, cfg.Year, cfg.Months, cfg.Seed, cfg.ScaleFactor); err != nil {
		return nil, fmt.Errorf("core: populating scenario: %w", err)
	}
	corpus := webcorpus.Build(corpusConfig(cfg))
	var opts []ir.Option
	if cfg.PassageSize > 0 {
		opts = append(opts, ir.WithPassageSize(cfg.PassageSize))
	}
	index := ir.NewIndex(opts...)
	if err := index.AddAll(corpus.Documents(cfg.TableAware)); err != nil {
		return nil, fmt.Errorf("core: indexing corpus: %w", err)
	}
	return &Pipeline{
		Config:    cfg,
		Schema:    schema,
		Warehouse: wh,
		Corpus:    corpus,
		Index:     index,
		Lexicon:   wordnet.Seed(),
	}, nil
}

// corpusConfig derives the web-corpus configuration from a pipeline
// config — shared by NewPipeline and the recovery path (durable.go), so
// a recovered boot rebuilds exactly the corpus metadata the index was
// built over.
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

// normalizeConfig fills the config defaults NewPipeline and the recovery
// path both rely on.
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
	if err := feedOntologyFromMembers(p.Ontology, p.Warehouse); err != nil {
		return err
	}
	p.step.Store(2)
	return nil
}

// memberSource is the dimension read surface Step 2 extracts instances
// from — a single warehouse or a shard cluster (whose dimensions are
// replicated, so either answers identically).
type memberSource interface {
	Members(dim, level string) []string
	ParentName(dim, level, name string) (string, error)
	MemberKey(dim, level, name string) (int, error)
	Member(dim, level string, key int) (dw.Member, error)
}

// feedOntologyFromMembers performs the Step 2 extraction: every airport
// member becomes an Airport instance (with its city and alias/IATA
// names), every city a City instance, every country a Country instance.
func feedOntologyFromMembers(o *ontology.Ontology, wh memberSource) error {
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
	return nil
}

// Step3MergeUpperOntology merges the enriched domain ontology into the
// QA system's upper ontology (WordNet). With QA.UseOntology off (the
// E-ONTO ablation) the merge is skipped and the lexicon stays untuned.
func (p *Pipeline) Step3MergeUpperOntology() error {
	if err := p.require(2); err != nil {
		return err
	}
	if p.Config.QA.UseOntology {
		rep, err := merge.Merge(p.Ontology, p.Lexicon)
		if err != nil {
			return err
		}
		p.MergeReport = rep
	} else {
		p.MergeReport = &merge.Report{Mapping: map[string]string{}}
	}
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
// installed.
func (p *Pipeline) Step4TuneQA() error {
	if err := p.require(3); err != nil {
		return err
	}
	for _, a := range TemperatureAxioms() {
		if err := p.Ontology.AddAxiom(a); err != nil {
			return err
		}
	}
	sys, err := qa.NewSystem(p.Lexicon, p.qaOntology(), p.Index, p.Config.QA)
	if err != nil {
		return err
	}
	sys.TunePatterns(qa.WeatherPatterns()...)
	p.QA = sys
	p.step.Store(4)
	return nil
}

// WeatherQuestions generates the Step 5 query workload: one month-level
// weather question per (destination airport, covered month), phrased like
// the paper's examples.
func (p *Pipeline) WeatherQuestions() []string {
	var qs []string
	for _, a := range ScenarioAirports {
		if _, ok := p.Corpus.Weather[a.City]; !ok {
			continue
		}
		for _, month := range p.Config.Months {
			qs = append(qs, fmt.Sprintf("What is the weather like in %s of %d in %s?",
				time.Month(month), p.Config.Year, a.Name))
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
// across Step 5 runs — its loader keeps the dedup state that makes
// repeated feeds idempotent, and its answer cache is invalidated by every
// feed.
func (p *Pipeline) Engine() (*engine.Engine, error) {
	if err := p.require(4); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.eng != nil {
		return p.eng, nil
	}
	if p.Loader == nil {
		loader, err := etl.NewLoader(p.Ontology, p.Warehouse, "Weather", "City", "Date")
		if err != nil {
			return nil, err
		}
		p.Loader = loader
	}
	harvester, err := p.NewHarvester()
	if err != nil {
		return nil, err
	}
	// Library mode: unset limits stay off (see Config.Engine) so bulk
	// callers — evaluation sweeps, corpus benchmarks — are never shed
	// or timed out by serving defaults they did not choose.
	cfg := p.Config.Engine
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = -1
	}
	if cfg.AskTimeout == 0 {
		cfg.AskTimeout = -1
	}
	if cfg.HarvestTimeout == 0 {
		cfg.HarvestTimeout = -1
	}
	eng, err := engine.New(cfg, p.QA, harvester, p.Loader, p.Index)
	if err != nil {
		return nil, err
	}
	eng.SetDefaultHarvest(p.WeatherQuestions())
	// The analytic path: Ask/AskAll classify every question and dispatch
	// analytic ones to the compiled OLAP engine instead of the factoid
	// modules (DESIGN.md §6).
	trans, err := p.translatorLocked()
	if err != nil {
		return nil, err
	}
	eng.SetTranslator(trans)
	// Durable pipelines wire the engine into the store so SnapshotTo and
	// background snapshots work, and /healthz reports recovery stats. The
	// store reports its WAL append/fsync latency into the engine's
	// registry.
	if p.st != nil {
		eng.SetDurability(p, p.st, p.recovery)
		p.st.SetMetrics(store.Metrics{
			Append: eng.StageHistogram(obs.StageWALAppend),
			Fsync:  eng.WALFsyncHistogram(),
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
	harvestCfg := p.Config.QA
	harvestCfg.TopPassages = p.Config.HarvestPassages
	harvester, err := qa.NewSystem(p.Lexicon, p.qaOntology(), p.Index, harvestCfg)
	if err != nil {
		return nil, err
	}
	harvester.TunePatterns(qa.WeatherPatterns()...)
	return harvester, nil
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

// qaOntology returns the ontology handed to QA systems: nil when the
// ontology ablation is on keeps even axiom access away.
func (p *Pipeline) qaOntology() *ontology.Ontology {
	if !p.Config.QA.UseOntology {
		return nil
	}
	return p.Ontology
}

// RunAll executes the five steps with the default question workload.
func (p *Pipeline) RunAll() error {
	if err := p.Step1DeriveOntology(); err != nil {
		return err
	}
	if err := p.Step2FeedOntology(); err != nil {
		return err
	}
	if err := p.Step3MergeUpperOntology(); err != nil {
		return err
	}
	if err := p.Step4TuneQA(); err != nil {
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
	fmt.Fprintf(&b, "Pipeline (seed %d, year %d, months %v)\n", p.Config.Seed, p.Config.Year, p.Config.Months)
	fmt.Fprintf(&b, "  warehouse: %d sales rows, %d weather rows\n",
		p.Warehouse.FactCount("LastMinuteSales"), p.Warehouse.FactCount("Weather"))
	fmt.Fprintf(&b, "  corpus: %d pages, %d passages indexed\n", len(p.Corpus.Pages), p.Index.PassageCount())
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
