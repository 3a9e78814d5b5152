package ir

import (
	"fmt"
	"sync"
	"testing"
)

// TestAddWhileSearchRace interleaves Add with every search path under the
// race detector: the pooled sparse accumulators are shared mutable
// scratch state, and this pins that each query owns its accumulator
// exclusively while documents (and therefore term ids, posting lists and
// the passage count) grow concurrently. Run with -race to arm it.
func TestAddWhileSearchRace(t *testing.T) {
	ix := NewIndex(WithPassageSize(2), WithStride(1))
	if err := ix.AddBatch(testDocs()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Writer: keeps indexing fresh documents, growing passages and terms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 60; i++ {
			doc := Document{
				URL: fmt.Sprintf("http://race.example/%d", i),
				Text: fmt.Sprintf("Fresh document number %d mentions temperature in Barcelona. "+
					"Another sentence cites term%d and weather in January.", i, i),
			}
			if err := ix.AddBatch([]Document{doc}); err != nil {
				t.Errorf("AddBatch: %v", err)
				return
			}
		}
	}()

	// Readers: sparse and dense searches, both retrieval levels, plus the
	// read-only accessors, all racing the writer.
	queries := [][]string{
		{"temperature", "barcelona"},
		{"weather", "january"},
		{"actor", "album"},
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				terms := queries[(g+i)%len(queries)]
				ix.Search(terms, 3)
				ix.SearchDocuments(terms, 2)
				ix.SearchReference(terms, 3)
				ix.SearchDocumentsReference(terms, 2)
				ix.DF("temperature")
				ix.PassageCount()
			}
		}(g)
	}
	wg.Wait()

	// The index must still answer correctly after the churn.
	got := ix.Search([]string{"temperature", "barcelona"}, 3)
	if len(got) == 0 {
		t.Fatal("no results after concurrent add/search")
	}
}
