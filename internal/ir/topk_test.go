package ir

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestSelectTopKMatchesFullSort cross-checks the bounded heap against a
// full sort over random score vectors, including heavy ties.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(400)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse buckets force score ties so the id tiebreak matters.
			scores[i] = float64(rng.Intn(8))
		}
		k := rng.Intn(20) + 1
		got := selectTopK(scores, k)

		var ids []int32
		for id, s := range scores {
			if s > 0 {
				ids = append(ids, int32(id))
			}
		}
		sort.Slice(ids, func(i, j int) bool {
			si, sj := scores[ids[i]], scores[ids[j]]
			if si != sj {
				return si > sj
			}
			return ids[i] < ids[j]
		})
		if len(ids) > k {
			ids = ids[:k]
		}
		if len(got) != len(ids) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(ids))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("trial %d: rank %d = %d, want %d", trial, i, got[i], ids[i])
			}
		}
	}
}

// TestSelectTopKHugeKClamped guards against a "return everything" k
// reserving O(k) memory: the heap must be bounded by the candidate count.
func TestSelectTopKHugeKClamped(t *testing.T) {
	scores := []float64{0, 3, 1, 0, 2}
	got := selectTopK(scores, 1<<31-1)
	want := []int32{1, 4, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSearchTopKPrefixStable asserts that shrinking k only truncates the
// ranking — the bounded heap must not reorder survivors.
func TestSearchTopKPrefixStable(t *testing.T) {
	ix := NewIndex(WithPassageSize(2), WithStride(1))
	for d := 0; d < 12; d++ {
		text := ""
		for s := 0; s < 6; s++ {
			switch (d + s) % 3 {
			case 0:
				text += "The weather in Barcelona is warm today. "
			case 1:
				text += "Madrid temperature rises in summer heat. "
			default:
				text += "Flights depart on time from the airport. "
			}
		}
		if err := ix.AddBatch([]Document{{URL: fmt.Sprintf("doc-%d", d), Text: text}}); err != nil {
			t.Fatal(err)
		}
	}
	terms := QueryTerms("warm weather temperature in Barcelona")
	full := ix.Search(terms, ix.PassageCount())
	if len(full) == 0 {
		t.Fatal("no results for scored query")
	}
	for _, k := range []int{1, 2, 5, len(full)} {
		got := ix.Search(terms, k)
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(got) != want {
			t.Fatalf("k=%d returned %d results, want %d", k, len(got), want)
		}
		for i := range got {
			if got[i].DocURL != full[i].DocURL || got[i].SentStart != full[i].SentStart || got[i].Score != full[i].Score {
				t.Errorf("k=%d rank %d = %s[%d] (%.4f), full ranking has %s[%d] (%.4f)",
					k, i, got[i].DocURL, got[i].SentStart, got[i].Score,
					full[i].DocURL, full[i].SentStart, full[i].Score)
			}
		}
	}
	// Scores must be non-increasing.
	for i := 1; i < len(full); i++ {
		if full[i].Score > full[i-1].Score {
			t.Errorf("ranking not monotone at %d: %.4f > %.4f", i, full[i].Score, full[i-1].Score)
		}
	}
}

// TestSearchDocumentsTopK mirrors the prefix check for the document-level
// baseline mode.
func TestSearchDocumentsTopK(t *testing.T) {
	ix := NewIndex()
	docs := []Document{
		{URL: "a", Text: "Barcelona weather is warm. Barcelona beaches are sunny."},
		{URL: "b", Text: "Madrid weather is dry. The summer is hot in Madrid."},
		{URL: "c", Text: "Flight schedules changed this morning at the airport."},
	}
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	terms := QueryTerms("warm Barcelona weather")
	full := ix.SearchDocuments(terms, 3)
	top1 := ix.SearchDocuments(terms, 1)
	if len(top1) != 1 || len(full) < 2 {
		t.Fatalf("unexpected result sizes: %d, %d", len(top1), len(full))
	}
	if top1[0].URL != full[0].URL {
		t.Errorf("k=1 winner %q != full ranking winner %q", top1[0].URL, full[0].URL)
	}
	if full[0].URL != "a" {
		t.Errorf("best doc = %q, want a", full[0].URL)
	}
}
