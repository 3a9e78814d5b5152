package core

import (
	"strings"
	"sync"
	"testing"

	"dwqa/internal/ir"
	"dwqa/internal/qa"
	"dwqa/internal/webcorpus"
	"dwqa/internal/wordnet"
)

// Failure-injection and robustness tests: the integration must degrade
// loudly or gracefully, never silently wrong.

func TestPipelineWithTinyCorpus(t *testing.T) {
	// A corpus covering a single city/month still runs end to end.
	cfg := DefaultConfig()
	cfg.Corpus = &webcorpus.Config{
		Cities: []string{"Barcelona"}, Year: 2004, Months: []int{1},
		Seed: 42, TableShare: 0, IncludeDistractors: false,
	}
	cfg.Months = []int{1}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunAll(); err != nil {
		t.Fatal(err)
	}
	res, err := p.Ask("What is the weather like in January of 2004 in El Prat?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Location != "Barcelona" {
		t.Errorf("tiny corpus answer = %+v", res.Best)
	}
}

func TestPipelineUncoveredCityQuestion(t *testing.T) {
	// Asking about a city the corpus has no pages for must not fabricate
	// a matching answer.
	p := runAll(t)
	res, err := p.Ask("What is the weather like in January of 2004 in Lausanne?")
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil && res.Best.Location == "Lausanne" {
		t.Errorf("fabricated answer for uncovered city: %+v", res.Best)
	}
}

func TestQAOverEmptyIndex(t *testing.T) {
	// A QA system over an empty collection answers nothing, not garbage.
	wn := wordnet.Seed()
	sys, err := qa.NewSystem(wn, nil, ir.NewIndex(), qa.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.TunePatterns(qa.WeatherPatterns()...)
	res, err := sys.Answer("What is the temperature in January of 2004 in Barcelona?")
	if err != nil {
		t.Fatalf("empty index should not error: %v", err)
	}
	if res.Best != nil {
		t.Errorf("answer from empty index: %+v", res.Best)
	}
	if len(res.Passages) != 0 {
		t.Errorf("passages from empty index: %d", len(res.Passages))
	}
}

func TestMalformedPagesSurviveIndexing(t *testing.T) {
	// Broken HTML degrades to best-effort text; the pipeline must accept
	// a corpus containing such pages.
	corpus := webcorpus.Build(webcorpus.DefaultConfig())
	corpus.Pages = append(corpus.Pages, webcorpus.Page{
		URL:  "http://broken.example/page",
		HTML: "<html><body><p>Temperature 12º C in Barcelona<table><tr><td>unclosed",
	})
	docs := corpus.Documents(false)
	index := ir.NewIndex()
	if err := index.AddBatch(docs); err != nil {
		t.Fatalf("malformed page broke indexing: %v", err)
	}
	if index.DocCount() != len(corpus.Pages) {
		t.Errorf("indexed %d of %d pages", index.DocCount(), len(corpus.Pages))
	}
}

func TestConcurrentAsks(t *testing.T) {
	p := runAll(t)
	questions := []string{
		"What is the weather like in January of 2004 in El Prat?",
		"What is the temperature in February of 2004 in JFK?",
		"Which country did Iraq invade in 1990?",
		"Who was the mayor of New York?",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(questions)*8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range questions {
				if _, err := p.Ask(q); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Ask: %v", err)
	}
}

func TestStep5WithUnanswerableQuestions(t *testing.T) {
	p := newPipeline(t)
	for _, step := range []func() error{
		p.Step1DeriveOntology, p.Step2FeedOntology,
		p.Step3MergeUpperOntology, p.Step4TuneQA,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	results, err := p.Step5FeedWarehouse([]string{
		"What is the weather like in December of 1999 in Lausanne?",
	})
	if err != nil {
		t.Fatalf("unanswerable questions should not abort the feed: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %v", results)
	}
	if results[0].Answers != 0 {
		t.Errorf("uncovered question loaded %d records", results[0].Answers)
	}
}

func TestRunAllIdempotentFeed(t *testing.T) {
	// Running Step 5 twice must not duplicate warehouse rows (the ETL
	// loader deduplicates by city/day/source).
	p := runAll(t)
	before := p.Warehouse.FactCount("Weather")
	if _, err := p.Step5FeedWarehouse(p.WeatherQuestions()); err != nil {
		t.Fatal(err)
	}
	after := p.Warehouse.FactCount("Weather")
	if after != before {
		t.Errorf("second feed changed rows %d → %d; Step 5 is not idempotent", before, after)
	}
}

func TestAblationsComposable(t *testing.T) {
	// Both ablations off at once still runs (worst configuration).
	cfg := DefaultConfig()
	cfg.QA.UseOntology = false
	cfg.QA.UseIRFilter = false
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RunAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Ask("What is the temperature in January of 2004 in Barcelona?"); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryBeforeSteps(t *testing.T) {
	p := newPipeline(t)
	s := p.Summary()
	if !strings.Contains(s, "warehouse:") {
		t.Errorf("pre-step summary incomplete: %s", s)
	}
	if strings.Contains(s, "ontology:") {
		t.Error("pre-step summary should not mention an ontology yet")
	}
}
