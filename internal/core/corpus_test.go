package core

import (
	"strings"
	"testing"

	"dwqa/internal/ir"
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

	// Sparse and dense must agree before anything is benchmarked.
	if err := VerifyScaledIR(sc, 10); err != nil {
		t.Fatalf("VerifyScaledIR: %v", err)
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

func TestScaledIRErrorPaths(t *testing.T) {
	// Verification over an empty index reports the missing passages.
	empty := &ScaledCorpus{Index: ir.NewIndex(), Cities: []string{"Alderford"}}
	if err := VerifyScaledIR(empty, 5); err == nil {
		t.Error("VerifyScaledIR accepted an empty index")
	}
}

func TestColdQuestionWorkload(t *testing.T) {
	p, err := NewPipeline(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := ColdQuestionWorkload(p)
	if len(qs) == 0 {
		t.Fatal("empty cold workload")
	}
	seen := map[string]bool{}
	for _, q := range qs {
		key := strings.ToLower(strings.TrimSpace(q))
		if seen[key] {
			t.Errorf("duplicate cold question %q", q)
		}
		seen[key] = true
	}
}
