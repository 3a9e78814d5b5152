package core

import (
	"strings"
	"testing"
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
