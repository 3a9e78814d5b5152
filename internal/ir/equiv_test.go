package ir

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// equivVocab is a vocabulary of content words the random corpora draw
// from; small enough that terms collide across documents and tf > 1
// occurs, exercising the (1 + log tf) branch.
var equivVocab = []string{
	"storm", "harbor", "melon", "bridge", "engine", "forest", "signal",
	"market", "garden", "window", "anchor", "valley", "copper", "stone",
	"river", "temperature", "barcelona", "january", "weather", "album",
}

// randomSentence builds one sentence of random vocabulary words.
func randomSentence(rng *rand.Rand) string {
	n := 3 + rng.Intn(8)
	words := make([]string, n)
	for i := range words {
		words[i] = equivVocab[rng.Intn(len(equivVocab))]
	}
	return strings.Join(words, " ") + "."
}

// randomIndex builds a random corpus: 1-6 documents of 1-8 sentences,
// random window size and stride.
func randomIndex(t *testing.T, rng *rand.Rand) *Index {
	t.Helper()
	ix := NewIndex(WithPassageSize(1+rng.Intn(4)), WithStride(1+rng.Intn(3)))
	nDocs := 1 + rng.Intn(6)
	for d := 0; d < nDocs; d++ {
		var b strings.Builder
		for s, nS := 0, 1+rng.Intn(8); s < nS; s++ {
			b.WriteString(randomSentence(rng))
			b.WriteString(" ")
		}
		if err := ix.AddBatch([]Document{{URL: fmt.Sprintf("http://e.example/%d", d), Text: b.String()}}); err != nil {
			t.Fatalf("AddBatch: %v", err)
		}
	}
	return ix
}

// randomQuery draws a query of vocabulary terms, sometimes with
// duplicates and unknown terms mixed in.
func randomQuery(rng *rand.Rand) []string {
	n := 1 + rng.Intn(4)
	terms := make([]string, 0, n+2)
	for i := 0; i < n; i++ {
		terms = append(terms, equivVocab[rng.Intn(len(equivVocab))])
	}
	if rng.Intn(3) == 0 {
		terms = append(terms, terms[0]) // duplicate: weighs twice in both engines
	}
	if rng.Intn(3) == 0 {
		terms = append(terms, "zzzunknownterm")
	}
	return terms
}

// TestSparseDenseEquivalence is the sparse/dense oracle property test
// (mirroring internal/dw/equiv_test.go): random corpora and random
// queries must rank byte-identically — scores included, since both
// engines accumulate in the same order — under the pooled sparse scorer
// and the retained dense reference, for passage and document retrieval
// alike.
func TestSparseDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		ix := randomIndex(t, rng)
		for q := 0; q < 12; q++ {
			terms := randomQuery(rng)
			k := 1 + rng.Intn(ix.PassageCount()+3) // sometimes k > matches
			assertSameRanking(t, ix, terms, k)
		}
		// The shapes the tentpole calls out explicitly.
		assertSameRanking(t, ix, []string{"the", "of", "in"}, 5)       // all-stopword
		assertSameRanking(t, ix, []string{"zzzunknownterm"}, 5)        // no-match
		assertSameRanking(t, ix, QueryTerms("storm harbor market"), 3) // normalised path
	}
}

func assertSameRanking(t *testing.T, ix *Index, terms []string, k int) {
	t.Helper()
	sparse := ix.Search(terms, k)
	dense := ix.SearchReference(terms, k)
	if !reflect.DeepEqual(sparse, dense) {
		t.Fatalf("passage ranking diverges for terms %v k=%d:\nsparse: %s\ndense:  %s",
			terms, k, rankingString(sparse), rankingString(dense))
	}
	sdocs := ix.SearchDocuments(terms, k)
	ddocs := ix.SearchDocumentsReference(terms, k)
	if !reflect.DeepEqual(sdocs, ddocs) {
		t.Fatalf("document ranking diverges for terms %v k=%d:\nsparse: %+v\ndense:  %+v",
			terms, k, sdocs, ddocs)
	}
}

func rankingString(ps []Passage) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "(%s[%d:%d] %.17g) ", p.DocURL, p.SentStart, p.SentEnd, p.Score)
	}
	return b.String()
}

// TestSparseDenseEquivalenceAcrossGrowth pins equivalence while the index
// grows (pooled accumulators must track the moving passage count).
func TestSparseDenseEquivalenceAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix := NewIndex(WithPassageSize(2), WithStride(1))
	for d := 0; d < 12; d++ {
		text := randomSentence(rng) + " " + randomSentence(rng) + " " + randomSentence(rng)
		if err := ix.AddBatch([]Document{{URL: fmt.Sprintf("http://g.example/%d", d), Text: text}}); err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, ix, []string{"storm", "harbor", "temperature"}, 4)
	}
}

// TestTFWeightBitwise: the tf-weight table and its above-table arm
// return exactly the bits of the literal expression the reference oracle
// evaluates, so the kernel cannot move a score by one ulp.
func TestTFWeightBitwise(t *testing.T) {
	tfs := []int32{64, 65, 1000, math.MaxInt32}
	for tf := int32(0); tf < tfTableSize; tf++ {
		tfs = append(tfs, tf)
	}
	for _, tf := range tfs {
		if got, want := math.Float64bits(tfWeight(tf)), math.Float64bits(1+math.Log(float64(tf))); got != want {
			t.Errorf("tfWeight(%d) bits %#x, want %#x", tf, got, want)
		}
	}
}

// TestSparseDenseEquivalenceAboveTable ranks passages and documents whose
// term frequencies run past the tf-weight table, so the kernel's computed
// arm is proven against the reference oracles as well as the table.
func TestSparseDenseEquivalenceAboveTable(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ix := NewIndex(WithPassageSize(2), WithStride(1))
	docs := []Document{
		{URL: "http://t.example/0", Text: strings.Repeat("storm ", 70) + "harbor. " + randomSentence(rng)},
		{URL: "http://t.example/1", Text: strings.Repeat("storm harbor ", 40) + "market. " + strings.Repeat("storm ", 90) + "river."},
	}
	for d := 2; d < 8; d++ {
		docs = append(docs, Document{URL: fmt.Sprintf("http://t.example/%d", d), Text: randomSentence(rng) + " " + randomSentence(rng)})
	}
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	maxTF := int32(0)
	for c := ix.postings[ix.terms["storm"]].cursor(); ; {
		_, tf, ok := c.next()
		if !ok {
			break
		}
		maxTF = max(maxTF, tf)
	}
	if maxTF < 2*tfTableSize {
		t.Fatalf("largest storm tf is %d: the corpus no longer reaches past the table", maxTF)
	}
	for _, terms := range [][]string{{"storm"}, {"storm", "harbor"}, {"harbor", "storm", "river"}, {"market"}} {
		assertSameRanking(t, ix, terms, 3)
		assertSameRanking(t, ix, terms, ix.PassageCount())
	}
	for q := 0; q < 20; q++ {
		assertSameRanking(t, ix, randomQuery(rng), 1+rng.Intn(ix.PassageCount()))
	}
}

// TestSearchIsSearchWeightedWithLocalStats: Search equals SearchWeighted
// under the idf GlobalIDF derives from the index's own TermStats — the
// property a one-shard federation relies on — on random corpora.
func TestSearchIsSearchWeightedWithLocalStats(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		ix := randomIndex(t, rng)
		for q := 0; q < 10; q++ {
			terms := randomQuery(rng)
			k := 1 + rng.Intn(ix.PassageCount()+3)
			got := ix.SearchWeighted(terms, GlobalIDF(ix.TermStats(terms)), k)
			if want := ix.Search(terms, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("terms %v k=%d:\nweighted: %s\nsearch:   %s", terms, k, rankingString(got), rankingString(want))
			}
		}
	}
}

// TestReferenceEdgeCases pins the dense oracle's guard branches to the
// sparse engine's: nil terms, k <= 0, empty index, no-match terms.
func TestReferenceEdgeCases(t *testing.T) {
	ix := newTestIndex(t)
	if got := ix.SearchReference(nil, 5); got != nil {
		t.Error("nil terms should return nil")
	}
	if got := ix.SearchReference([]string{"temperature"}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := ix.SearchReference([]string{"zzzunknown"}, 5); len(got) != 0 {
		t.Error("unknown term should match nothing")
	}
	if got := ix.SearchDocumentsReference(nil, 5); got != nil {
		t.Error("docs: nil terms should return nil")
	}
	if got := ix.SearchDocumentsReference([]string{"temperature"}, -1); got != nil {
		t.Error("docs: k<0 should return nil")
	}
	if got := ix.SearchDocuments([]string{"temperature"}, 0); got != nil {
		t.Error("sparse docs: k=0 should return nil")
	}
	if got := ix.SearchDocuments([]string{"zzzunknown"}, 5); len(got) != 0 {
		t.Error("sparse docs: unknown term should match nothing")
	}
	empty := NewIndex()
	if got := empty.SearchReference([]string{"x"}, 5); got != nil {
		t.Error("empty index should return nil")
	}
	if got := empty.SearchDocumentsReference([]string{"x"}, 5); got != nil {
		t.Error("empty index docs should return nil")
	}
	if got := empty.SearchDocuments([]string{"x"}, 5); got != nil {
		t.Error("empty index sparse docs should return nil")
	}
}
