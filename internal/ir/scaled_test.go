package ir_test

import (
	"fmt"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/ir"
)

// Sparse-vs-dense at corpus scale: the generated weather corpus of
// core.BuildScaledCorpus, queried with the per-city [city, month] terms
// question analysis sends to IR-n and with the day-level factoid shape
// [city, month, day, year] that dominates serving. The benchmarks verify
// the scoring kernel against the dense reference before anything is
// timed, so
//
//	go test -run '^$' -bench 'BenchmarkIRSearch(1k|10k)$' -benchtime 1x ./internal/ir
//
// doubles as a corpus-scale oracle check.

// dayQueries returns one day-level factoid query per city, the terms of
// "What is the temperature in <City> on January <d>, <year>?": the day
// number and the year sit in a large share of all passages, so their
// lists carry long encoded prefixes, and the city's list the multi-byte
// gaps between its pages.
func dayQueries(sc *core.ScaledCorpus) [][]string {
	out := make([][]string, 0, len(sc.Cities))
	for i, city := range sc.Cities {
		year := sc.Years[i%len(sc.Years)]
		out = append(out, ir.QueryTerms(fmt.Sprintf("%s on January %d, %d", city, i%28+1, year)))
	}
	return out
}

// verifyScaledIR asserts the sparse scorer and the dense reference rank
// every workload query of both shapes byte-identically at top-k.
func verifyScaledIR(sc *core.ScaledCorpus, k int) error {
	for _, terms := range append(sc.Queries(), dayQueries(sc)...) {
		sparse := sc.Index.Search(terms, k)
		dense := sc.Index.SearchReference(terms, k)
		if len(sparse) == 0 {
			return fmt.Errorf("query %v returned no passages", terms)
		}
		if len(sparse) != len(dense) {
			return fmt.Errorf("query %v: sparse returned %d passages, dense %d",
				terms, len(sparse), len(dense))
		}
		for i := range sparse {
			s, d := sparse[i], dense[i]
			if s.DocURL != d.DocURL || s.SentStart != d.SentStart ||
				s.SentEnd != d.SentEnd || s.Score != d.Score || s.Text != d.Text {
				return fmt.Errorf("query %v rank %d diverges: sparse %s[%d:%d] %.17g, dense %s[%d:%d] %.17g",
					terms, i, s.DocURL, s.SentStart, s.SentEnd, s.Score,
					d.DocURL, d.SentStart, d.SentEnd, d.Score)
			}
		}
	}
	return nil
}

func TestScaledIREquivalence(t *testing.T) {
	sc, err := core.BuildScaledCorpus(800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyScaledIR(sc, 10); err != nil {
		t.Fatalf("verifyScaledIR: %v", err)
	}
}

func TestScaledIRErrorPaths(t *testing.T) {
	// Verification over an empty index reports the missing passages.
	empty := &core.ScaledCorpus{Index: ir.NewIndex(), Cities: []string{"Alderford"}, Years: []int{1998}}
	if err := verifyScaledIR(empty, 5); err == nil {
		t.Error("verifyScaledIR accepted an empty index")
	}
}

// benchIRSearch times the sparse passage scorer against the dense
// SearchReference over a generated corpus, cycling the per-city
// [city, month] queries.
func benchIRSearch(b *testing.B, targetPassages int) {
	sc, err := core.BuildScaledCorpus(targetPassages, 42)
	if err != nil {
		b.Fatal(err)
	}
	if err := verifyScaledIR(sc, 10); err != nil {
		b.Fatal(err)
	}
	queries := sc.Queries()
	b.Logf("passages: %d, cities: %d, terms: %d", sc.Index.PassageCount(), len(sc.Cities), sc.Index.TermCount())
	b.Run("sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sc.Index.Search(queries[i%len(queries)], 10)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sc.Index.SearchReference(queries[i%len(queries)], 10)
		}
	})
}

func BenchmarkIRSearch1k(b *testing.B)   { benchIRSearch(b, 1_000) }
func BenchmarkIRSearch10k(b *testing.B)  { benchIRSearch(b, 10_000) }
func BenchmarkIRSearch100k(b *testing.B) { benchIRSearch(b, 100_000) }
