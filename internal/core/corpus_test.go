package core

import (
	"fmt"
	"strings"
	"testing"

	"dwqa/internal/qa"
	"dwqa/internal/sbparser"
	"dwqa/internal/webcorpus"
)

func TestBuildScaledCorpus(t *testing.T) {
	sc, err := BuildScaledCorpus(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Index.PassageCount(); got < 800 {
		t.Errorf("PassageCount = %d, want >= 800", got)
	}
	if sc.Pages == 0 || len(sc.Cities) == 0 || len(sc.Years) == 0 {
		t.Fatalf("corpus metadata empty: %+v", sc)
	}
	if sc.Index.DocCount() != sc.Pages {
		t.Errorf("DocCount = %d, Pages = %d", sc.Index.DocCount(), sc.Pages)
	}

	// Deterministic: same target and seed rebuild the same corpus.
	again, err := BuildScaledCorpus(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.Pages != sc.Pages || again.Index.PassageCount() != sc.Index.PassageCount() ||
		again.Index.TermCount() != sc.Index.TermCount() {
		t.Errorf("rebuild diverges: %d/%d/%d vs %d/%d/%d",
			again.Pages, again.Index.PassageCount(), again.Index.TermCount(),
			sc.Pages, sc.Index.PassageCount(), sc.Index.TermCount())
	}

	// The workload: one selective query per city, carrying the city term
	// and the month term (the dropped-focus main-SB shape).
	queries := sc.Queries()
	if len(queries) != len(sc.Cities) {
		t.Fatalf("Queries = %d, cities = %d", len(queries), len(sc.Cities))
	}
	for i, q := range queries {
		if len(q) < 2 {
			t.Fatalf("query %d too short: %v", i, q)
		}
		hasMonth := false
		for _, term := range q {
			if term == "january" {
				hasMonth = true
			}
			if term != strings.ToLower(term) {
				t.Errorf("query %d term %q not normalised", i, term)
			}
		}
		if !hasMonth {
			t.Errorf("query %d lacks the month term: %v", i, q)
		}
	}
}

func TestBuildScaledCorpusTinyTarget(t *testing.T) {
	sc, err := BuildScaledCorpus(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Index.PassageCount() < 1 || sc.Pages != 1 {
		t.Errorf("tiny corpus: passages=%d pages=%d", sc.Index.PassageCount(), sc.Pages)
	}
}

// TestScaledCorpusMayQuestions asks a day-level question for every day
// of one city's May: "May" before a day number is the month, so it is a
// query term that selects the May page, and each answer is that day's
// May value rather than a value from another month of the city.
func TestScaledCorpusMayQuestions(t *testing.T) {
	sc, err := BuildScaledCorpus(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeline(t)
	if err := p.Integrate(); err != nil {
		t.Fatal(err)
	}
	sys, err := qa.NewSystem(p.Lexicon, p.Ontology, sc.Index, p.Config.QA)
	if err != nil {
		t.Fatal(err)
	}
	sys.TunePatterns(qa.WeatherPatterns()...)
	city, year := sc.Cities[0], sc.Years[0]
	for _, d := range webcorpus.WeatherSeries(city, year, 5, 7) {
		q := fmt.Sprintf("What is the temperature in %s on May %d, %d?", city, d.Day, year)
		res, err := sys.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		want := sbparser.DateRef{Year: year, Month: 5, Day: d.Day}
		if res.Best == nil || res.Best.Date != want || res.Best.Value != float64(d.HighC) {
			t.Errorf("%s: got %+v, want %d on %v", q, res.Best, d.HighC, want)
		}
	}
}
