package qa

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dwqa/internal/ir"
	"dwqa/internal/ontology"
	"dwqa/internal/sbparser"
	"dwqa/internal/wordnet"
)

// Config holds the ablation switches and pipeline parameters. Each switch
// maps to a claim of the paper (see DESIGN.md §5).
type Config struct {
	// UseOntology enables entity resolution and axiom validation through
	// the shared ontology and the merged lexicon (Steps 2-4 on). Off, the
	// system behaves like an untuned AliQAn (the E-ONTO ablation).
	UseOntology bool
	// UseIRFilter runs IR-n passage retrieval before extraction. Off, the
	// extractor analyses every passage of the collection (the paper: "IR
	// tools are usually run as a first filtering phase, and QA works on IR
	// output. In this way, time of analysis ... is highly decreased").
	UseIRFilter bool
	// TopPassages is how many passages Module 2 hands to Module 3.
	TopPassages int
	// MinScore is the acceptance threshold for the best answer.
	MinScore float64
}

// DefaultConfig enables everything, as the paper's evaluated system does.
func DefaultConfig() Config {
	return Config{UseOntology: true, UseIRFilter: true, TopPassages: 5, MinScore: 0.5}
}

// System is the assembled AliQAn reproduction: a lexical database (merged
// or untuned), an optional domain ontology, the passage index built in the
// indexation phase, and the question pattern set (defaults + Step 4
// tuning).
//
// A System is safe for concurrent use: Answer and Harvest may run from any
// number of goroutines (the serving engine in internal/engine does exactly
// that), and TunePatterns may interleave with them — the pattern set is
// replaced copy-on-write so in-flight questions keep the set they started
// with. The substrates are themselves concurrency-safe (ir.Index and
// wordnet.WordNet use read-write locks; the document-location cache below
// is guarded by docLocMu).
type System struct {
	wn    *wordnet.WordNet
	dom   *ontology.Ontology
	index Retriever
	cfg   Config

	// patterns holds the active pattern set sorted by priority (highest
	// first, ties in installation order). TunePatterns replaces the slice
	// wholesale under patMu; analyze snapshots it under the read lock, so
	// matched *QuestionPattern pointers stay valid after later tuning.
	patMu    sync.RWMutex
	patterns []*QuestionPattern

	docLocMu sync.Mutex
	docLoc   map[int]string // document index → first city in its header

	// sentMemo memoizes every question-independent derivation over a
	// corpus sentence — rendered text, shallow parse, extracted dates,
	// content lemmas, first city — keyed by (document index, sentence
	// index). These are functions of the corpus and the tuned lexicon,
	// not the question, so the cold path computes them once per sentence
	// instead of once per question that retrieves its passage. Same
	// lexicon-stability assumption as docLoc above.
	sentMu   sync.Mutex
	sentMemo map[[2]int]*sentInfo
}

// sentInfo carries the memoized per-sentence derivations. The entry is
// published in the map before it is filled; the once gate lets concurrent
// questions share one computation without holding sentMu across it.
type sentInfo struct {
	once   sync.Once
	text   string
	blocks []sbparser.Block
	dates  []sbparser.DateRef
	lemmas []string // content lemmas
	loc    string   // first city, "" when none
}

// Retriever is the passage-retrieval substrate a System answers from. A
// single *ir.Index satisfies it directly; a sharded cluster satisfies it
// by scattering searches and gathering with globally-consistent term
// weights (internal/shard), which is invisible to the QA layers above.
type Retriever interface {
	// Search returns the top-k passages for the analysed question terms.
	Search(terms []string, k int) []ir.Passage
	// AllPassages returns every passage (the no-IR-filter ablation path).
	AllPassages() []ir.Passage
	// Document resolves a Passage.DocIndex back to its document.
	Document(i int) (ir.Document, error)
}

// NewSystem assembles a QA system. wn and index are required; dom may be
// nil (the system then runs without Step 2/4 knowledge).
func NewSystem(wn *wordnet.WordNet, dom *ontology.Ontology, index Retriever, cfg Config) (*System, error) {
	if wn == nil {
		return nil, fmt.Errorf("qa: nil lexicon")
	}
	if index == nil {
		return nil, fmt.Errorf("qa: nil passage index")
	}
	if cfg.TopPassages <= 0 {
		cfg.TopPassages = 5
	}
	s := &System{
		wn:    wn,
		dom:   dom,
		index: index,
		cfg:   cfg,
	}
	s.patterns = sortedPatterns(nil, DefaultPatterns())
	return s, nil
}

// lexicon returns the lexical database.
func (s *System) lexicon() *wordnet.WordNet { return s.wn }

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// TunePatterns installs additional question patterns — Step 4 of the
// integration model ("the QA system is tuned to the new types of queries
// that are required by the users through a training process"). Safe to
// call while questions are in flight: the sorted set is rebuilt and
// swapped in atomically.
func (s *System) TunePatterns(ps ...QuestionPattern) {
	s.patMu.Lock()
	defer s.patMu.Unlock()
	s.patterns = sortedPatterns(s.patterns, ps)
}

// sortedPatterns builds a fresh priority-sorted pattern slice from the
// existing set plus additions. The old slice is never mutated, so readers
// holding a snapshot are unaffected.
func sortedPatterns(old []*QuestionPattern, add []QuestionPattern) []*QuestionPattern {
	out := make([]*QuestionPattern, 0, len(old)+len(add))
	out = append(out, old...)
	for i := range add {
		p := add[i]
		out = append(out, &p)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// snapshotPatterns returns the current pattern set for one question's
// analysis.
func (s *System) snapshotPatterns() []*QuestionPattern {
	s.patMu.RLock()
	defer s.patMu.RUnlock()
	return s.patterns
}

// Result is the full outcome of one question: the Module 1 analysis, the
// Module 2 passages, and the Module 3 candidates.
type Result struct {
	Analysis   *Analysis
	Passages   []ir.Passage
	Candidates []Answer
	// Best is the accepted answer, nil when no candidate clears MinScore.
	Best *Answer
}

// Timings reports the wall-clock time one question spent in each
// module, returned by value from the Timed entry points.
type Timings struct {
	Analyse time.Duration // Module 1: question analysis
	Search  time.Duration // Module 2: IR-n passage retrieval
	Extract time.Duration // Module 3: answer extraction
}

// Answer runs the three search modules on a question.
func (s *System) Answer(question string) (*Result, error) {
	r, _, err := s.AnswerTimed(question)
	return r, err
}

// AnswerTimed is Answer with per-module timing returned by value —
// value, not pointer, so the serving engine's hot path gets the module
// breakdown without a per-question heap allocation (a *Timings passed
// through the engine's indirect answer-function call would escape).
func (s *System) AnswerTimed(question string) (*Result, Timings, error) {
	res, tm, err := s.runModules(question)
	if err != nil {
		return nil, tm, err
	}
	if cands := res.Candidates; len(cands) > 0 && cands[0].Score >= s.cfg.MinScore {
		best := cands[0]
		res.Best = &best
	}
	return res, tm, nil
}

// runModules runs Modules 1-3 on a question, timing each.
func (s *System) runModules(question string) (*Result, Timings, error) {
	var tm Timings
	t := time.Now()
	a, err := s.analyze(question)
	tm.Analyse = time.Since(t)
	if err != nil {
		return nil, tm, err
	}
	t = time.Now()
	passages := s.selectPassages(a)
	tm.Search = time.Since(t)
	t = time.Now()
	cands := s.extract(a, passages)
	tm.Extract = time.Since(t)
	return &Result{Analysis: a, Passages: passages, Candidates: cands}, tm, nil
}

// selectPassages is Module 2: IR-n retrieval over the main SB terms, or
// the whole collection when the IR filter is ablated.
func (s *System) selectPassages(a *Analysis) []ir.Passage {
	if !s.cfg.UseIRFilter {
		return s.index.AllPassages()
	}
	return s.index.Search(a.Terms, s.cfg.TopPassages)
}

// Harvest extracts every distinct well-formed record answering the
// question — the Step 5 operation that generates the database
// (temperature – date – city – web page) from a month-level query. One
// record per (date, location) is kept: the best-scoring one.
func (s *System) Harvest(question string) ([]Answer, *Result, error) {
	answers, r, _, err := s.HarvestTimed(question)
	return answers, r, err
}

// HarvestTimed is Harvest with per-module timing returned by value
// (see AnswerTimed).
func (s *System) HarvestTimed(question string) ([]Answer, *Result, Timings, error) {
	res, tm, err := s.runModules(question)
	if err != nil {
		return nil, nil, tm, err
	}
	a, cands := res.Analysis, res.Candidates

	type key struct {
		d   sbparser.DateRef
		loc string
	}
	best := map[key]Answer{}
	var order []key
	for _, c := range cands {
		if c.Score < s.cfg.MinScore {
			continue
		}
		// The harvest is query-driven: records outside the question's
		// temporal or spatial constraints do not enter the database.
		if len(a.Dates) > 0 && (c.Date.IsZero() || !dateMatches(a.Dates, c.Date)) {
			continue
		}
		if len(a.Locations) > 0 && !locationMatches(a.Locations, c.Location) {
			continue
		}
		k := key{c.Date, strings.ToLower(c.Location)}
		cur, ok := best[k]
		if !ok {
			best[k] = c
			order = append(order, k)
			continue
		}
		if c.Score > cur.Score {
			best[k] = c
		}
	}
	out := make([]Answer, 0, len(order))
	for _, k := range order {
		out = append(out, best[k])
	}
	sortAnswers(out)
	return out, res, tm, nil
}

// Trace reproduces the paper's Table 1 for a result: every row of the
// pipeline from the query to the extracted answer.
type Trace struct {
	Query              string
	QueryAnalysis      string // syntactic-morphologic analysis of the query
	QuestionPattern    string
	ExpectedAnswerType string
	MainSBs            []string
	PassageURL         string
	PassageText        string
	PassageAnalysis    string // syntactic-morphologic analysis of the passage
	ExtractedAnswer    string
}

// Trace builds the Table 1 view of a result. The passage shown is the
// top-ranked one (the paper shows the first passage of Figure 4).
func (r *Result) Trace() Trace {
	t := Trace{
		Query:              r.Analysis.Question,
		QueryAnalysis:      sbparser.Render(r.Analysis.Blocks),
		QuestionPattern:    r.Analysis.Pattern.Name,
		ExpectedAnswerType: r.Analysis.ExpectedAnswerType(),
		MainSBs:            r.Analysis.MainSBStrings(),
	}
	if len(r.Passages) > 0 {
		// Show the passage supporting the extracted answer; without an
		// answer, the top-ranked passage.
		p := r.Passages[0]
		if r.Best != nil {
		find:
			for _, cand := range r.Passages {
				if cand.DocURL != r.Best.URL {
					continue
				}
				for _, sent := range cand.Sentences {
					if sent.Text() == r.Best.Sentence {
						p = cand
						break find
					}
				}
			}
		}
		t.PassageURL = p.DocURL
		t.PassageText = p.Text
		var rendered []string
		for _, sent := range p.Sentences {
			rendered = append(rendered, sbparser.Render(sbparser.Parse(sent)))
		}
		t.PassageAnalysis = strings.Join(rendered, "\n")
	}
	if r.Best != nil {
		t.ExtractedAnswer = r.Best.Render()
	}
	return t
}

// Format renders the trace as the two-column table of the paper.
func (t Trace) Format() string {
	var b strings.Builder
	row := func(label, value string) {
		fmt.Fprintf(&b, "%-42s| %s\n", label, value)
	}
	row("Query", t.Query)
	row("Syntactic-morphologic analysis of the query", t.QueryAnalysis)
	row("Question pattern", t.QuestionPattern)
	row("Expected answer type", t.ExpectedAnswerType)
	row("Main SBs passed to the IR-n passage retrieval system", strings.Join(t.MainSBs, "  "))
	row("Passage returned by the IR-n system", strings.ReplaceAll(t.PassageText, "\n", " / "))
	row("Syntactic-morphologic analysis of the passage", strings.ReplaceAll(t.PassageAnalysis, "\n", " / "))
	row("Extracted answer", t.ExtractedAnswer)
	return b.String()
}
