package ir

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// batchTestDocs returns n distinct multi-sentence documents whose
// vocabularies overlap, so term ids depend on installation order.
func batchTestDocs(n int) []Document {
	cities := []string{"Barcelona", "Madrid", "Seville", "Valencia", "Bilbao"}
	docs := make([]Document, n)
	for i := range docs {
		var b strings.Builder
		for s := 0; s < 3+i%7; s++ {
			fmt.Fprintf(&b, "In %s the temperature was %d degrees on day %d. ", cities[(i+s)%len(cities)], 10+(i*s)%25, s+1)
			if (i+s)%4 == 0 {
				fmt.Fprintf(&b, "Word%d and word%d appeared in the report. ", i, s)
			}
		}
		docs[i] = Document{URL: fmt.Sprintf("http://batch.example/%d", i), Text: b.String()}
	}
	return docs
}

func exportJSON(t *testing.T, ix *Index) []byte {
	t.Helper()
	buf, err := json.Marshal(ix.Export())
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestAddBatchRejectsLowestFailingDocument pins the batch failure
// contract the parallel analysis must keep: with the 3rd and 7th
// documents empty, the error names document 2 — the one a serial loop
// stops at — and the index is left exactly as it was.
func TestAddBatchRejectsLowestFailingDocument(t *testing.T) {
	ix := NewIndex()
	if err := ix.AddBatch(batchTestDocs(4)); err != nil {
		t.Fatal(err)
	}
	docs, passages, before := ix.DocCount(), ix.PassageCount(), exportJSON(t, ix)

	batch := batchTestDocs(10)
	batch[2].Text = ""
	batch[6].Text = "  \n "
	for range 20 { // workers race to the two failures; the report must not
		err := ix.AddBatch(batch)
		if err == nil {
			t.Fatal("a batch with empty documents was accepted")
		}
		if !strings.Contains(err.Error(), "batch document 2:") {
			t.Fatalf("AddBatch error = %v, want it to name document 2", err)
		}
	}
	if ix.DocCount() != docs || ix.PassageCount() != passages {
		t.Fatalf("rejected batch changed the index: %d docs / %d passages, was %d / %d",
			ix.DocCount(), ix.PassageCount(), docs, passages)
	}
	if after := exportJSON(t, ix); string(after) != string(before) {
		t.Fatal("rejected batch changed the exported index")
	}
}

// TestAddBatchMatchesSingleAdds pins that the parallel analysis changes
// nothing the index keeps: one 64-document AddBatch exports byte for
// byte what 64 one-document AddBatch calls export.
func TestAddBatchMatchesSingleAdds(t *testing.T) {
	docs := batchTestDocs(64)
	batched := NewIndex()
	if err := batched.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	single := NewIndex()
	for _, d := range docs {
		if err := single.AddBatch([]Document{d}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := exportJSON(t, batched), exportJSON(t, single); string(got) != string(want) {
		t.Fatalf("batched export (%d bytes) differs from one-at-a-time export (%d bytes)", len(got), len(want))
	}
}
