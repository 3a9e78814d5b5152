package ir_test

import (
	"reflect"
	"runtime"
	"testing"

	"dwqa/internal/core"
	"dwqa/internal/nlp"
)

// The index keeps each document in one form, its wire token block,
// encoded once when the document is installed. These tests pin the two
// sides of that: the blocks decode to exactly the analysis a document
// gets, and exporting hands them out without encoding anything.

// TestAddBatchBlocksDecodeToAnalysis checks every passage of an
// AddBatch-built corpus against a fresh sentence split of its document:
// the window decoded from the stored block holds the same sentences,
// token for token.
func TestAddBatchBlocksDecodeToAnalysis(t *testing.T) {
	sc, err := core.BuildScaledCorpus(1_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	split := map[int][]nlp.Sentence{}
	for _, p := range sc.Index.AllPassages() {
		sents, ok := split[p.DocIndex]
		if !ok {
			doc, err := sc.Index.Document(p.DocIndex)
			if err != nil {
				t.Fatal(err)
			}
			sents = nlp.SplitSentences(doc.Text)
			split[p.DocIndex] = sents
		}
		if want := sents[p.SentStart:p.SentEnd]; !reflect.DeepEqual(p.Sentences, want) {
			t.Fatalf("document %d window [%d:%d) decodes to\n%+v\nwant\n%+v", p.DocIndex, p.SentStart, p.SentEnd, p.Sentences, want)
		}
	}
	if len(split) != sc.Index.DocCount() {
		t.Fatalf("passages cover %d of %d documents", len(split), sc.Index.DocCount())
	}
}

// TestExportEncodesNothing bounds what one Export of an AddBatch-built
// corpus allocates by the token blocks it hands out: the blocks are
// shared, not encoded, so the copy of everything else stays below the
// blocks' own size.
func TestExportEncodesNothing(t *testing.T) {
	sc, err := core.BuildScaledCorpus(1_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := sc.Index.Export()
	runtime.ReadMemStats(&after)
	blocks := 0
	for _, b := range snap.DocTokens {
		blocks += len(b)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Export allocated %d B; token blocks %d B over %d documents", alloc, blocks, len(snap.DocTokens))
	if alloc >= uint64(blocks) {
		t.Fatalf("Export allocated %d B, at least the %d B of token blocks it should share", alloc, blocks)
	}
}
