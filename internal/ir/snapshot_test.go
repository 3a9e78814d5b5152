package ir

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// snapTestDocs is a small corpus with enough structure to exercise
// multi-sentence windows, overlapping passages and shared terms.
func snapTestDocs() []Document {
	docs := []Document{
		{URL: "http://w/bcn", Text: "The weather in Barcelona is mild. January temperatures reach 13 degrees. " +
			"Rain is rare in winter. The beach stays open. Tourists enjoy the sun. " +
			"February brings wind. March warms up quickly. April is pleasant. May is warm."},
		{URL: "http://w/mad", Text: "Madrid winters are cold. January temperatures drop to 2 degrees. " +
			"Snow falls on the sierra. The museums stay busy."},
		{URL: "http://w/nyc", Text: "New York shivers in January. Temperatures average zero degrees. " +
			"The wind funnels down the avenues."},
	}
	return docs
}

func TestIndexSnapshotRoundTrip(t *testing.T) {
	src := NewIndex(WithPassageSize(3), WithStride(1))
	if err := src.AddBatch(snapTestDocs()); err != nil {
		t.Fatal(err)
	}

	snap := src.Export()
	// Spare capacity behind the intern tables, where growth after the
	// restore must not write.
	snap.TokTags = slices.Grow(snap.TokTags, 8)
	snap.TokLemmas = slices.Grow(snap.TokLemmas, 64)
	nTags, nLemmas := len(snap.TokTags), len(snap.TokLemmas)
	tags, lemmas := snap.TokTags[:cap(snap.TokTags)], snap.TokLemmas[:cap(snap.TokLemmas)]
	tagsBefore, lemmasBefore := slices.Clone(tags), slices.Clone(lemmas)
	dst := NewIndex() // default geometry: Import must override it from the snapshot
	if err := dst.Import(snap); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(dst.Export(), snap) {
		t.Fatal("re-export after import diverges from the original snapshot")
	}
	if dst.DocCount() != src.DocCount() || dst.PassageCount() != src.PassageCount() || dst.TermCount() != src.TermCount() {
		t.Fatalf("counts diverge: %d/%d/%d vs %d/%d/%d",
			dst.DocCount(), dst.PassageCount(), dst.TermCount(),
			src.DocCount(), src.PassageCount(), src.TermCount())
	}

	// Every search over the imported index is byte-identical to the
	// original — passages, documents, sparse and dense engines alike.
	queries := [][]string{
		QueryTerms("temperature in January"),
		QueryTerms("Barcelona weather"),
		QueryTerms("wind in New York"),
		QueryTerms("nothing matches this ever"),
	}
	for _, terms := range queries {
		if got, want := dst.Search(terms, 5), src.Search(terms, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%v) diverges after import:\n got %+v\nwant %+v", terms, got, want)
		}
		if got, want := dst.SearchReference(terms, 5), src.SearchReference(terms, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchReference(%v) diverges after import", terms)
		}
		if got, want := dst.SearchDocuments(terms, 3), src.SearchDocuments(terms, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchDocuments(%v) diverges after import", terms)
		}
	}

	// The append-only invariants survive restore: adding the same new
	// document, with lemmas neither index has seen, to both indexes
	// interns identical term ids and intern-table entries, so both export
	// the same snapshot and keep answering identically.
	extra := Document{URL: "http://w/sev", Text: "Seville bakes in summer. July temperatures pass 40 degrees. The river cools the evenings."}
	if err := src.AddBatch([]Document{extra}); err != nil {
		t.Fatal(err)
	}
	if err := dst.AddBatch([]Document{extra}); err != nil {
		t.Fatal(err)
	}
	if dst.TermCount() != src.TermCount() {
		t.Fatalf("term dictionaries diverge after post-import Add: %d vs %d", dst.TermCount(), src.TermCount())
	}
	grown := src.Export()
	if len(grown.TokLemmas) <= len(snap.TokLemmas) {
		t.Fatalf("post-import document added no lemmas (%d before, %d after)", len(snap.TokLemmas), len(grown.TokLemmas))
	}
	if !reflect.DeepEqual(dst.Export(), grown) {
		t.Fatal("export after post-import Add diverges from the uninterrupted index's")
	}
	// The imported snapshot's tables are as they were, in length and in
	// content up to their capacity: growth extended a copy.
	if len(snap.TokTags) != nTags || len(snap.TokLemmas) != nLemmas {
		t.Fatalf("imported intern tables changed length: %d/%d, were %d/%d", len(snap.TokTags), len(snap.TokLemmas), nTags, nLemmas)
	}
	if !slices.Equal(tags, tagsBefore) || !slices.Equal(lemmas, lemmasBefore) {
		t.Fatal("growth after the restore wrote into the imported snapshot's intern tables")
	}
	terms := QueryTerms("Seville temperature in July")
	if got, want := dst.Search(terms, 5), src.Search(terms, 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("Search after post-import Add diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestIndexImportRejectsCorruptSnapshots(t *testing.T) {
	src := NewIndex(WithPassageSize(3), WithStride(1))
	if err := src.AddBatch(snapTestDocs()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		{"bad geometry", func(s *Snapshot) { s.Stride = s.PassageSize + 1 }},
		{"sents/docs mismatch", func(s *Snapshot) { s.DocSents = s.DocSents[:1] }},
		{"blocks/docs mismatch", func(s *Snapshot) { s.DocTokens = s.DocTokens[:1] }},
		{"postings/terms mismatch", func(s *Snapshot) { s.Postings = s.Postings[:1] }},
		{"passage doc out of range", func(s *Snapshot) { s.Passages[0].Doc = 99 }},
		{"passage window out of range", func(s *Snapshot) { s.Passages[0].SentEnd = 99 }},
		{"duplicate term", func(s *Snapshot) { s.Terms[1] = s.Terms[0] }},
		{"posting out of range", func(s *Snapshot) { s.Postings[0] = CompressPostings([]Posting{{ID: 9999, TF: 1}}) }},
		{"posting count overclaims", func(s *Snapshot) { s.Postings[0].N++ }},
		{"posting trailing bytes", func(s *Snapshot) { s.Postings[0].Enc = append(s.Postings[0].Enc, 1, 1) }},
		{"zero posting gap", func(s *Snapshot) {
			s.Postings[0] = PostingList{N: 2, Enc: append(appendPosting(nil, -1, Posting{ID: 0, TF: 1}), 0, 1)}
		}},
		{"zero tf", func(s *Snapshot) { s.Postings[0] = PostingList{N: 1, Enc: []byte{1, 0}} }},
		{"token block truncated", func(s *Snapshot) { s.DocTokens[0] = s.DocTokens[0][:len(s.DocTokens[0])-1] }},
		{"token count overclaims", func(s *Snapshot) { s.DocToks[0]++ }},
		{"tag index out of range", func(s *Snapshot) { s.TokTags = s.TokTags[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := src.Export()
			tc.mutate(snap)
			dst := NewIndex()
			if err := dst.Import(snap); err == nil {
				t.Fatal("corrupt snapshot imported without error")
			}
			if dst.DocCount() != 0 || dst.TermCount() != 0 {
				t.Fatalf("failed import left state behind: %d docs, %d terms", dst.DocCount(), dst.TermCount())
			}
		})
	}
	// Import refuses a non-empty target.
	dst := NewIndex()
	if err := dst.AddBatch([]Document{{URL: "u", Text: "Some text here."}}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(src.Export()); err == nil {
		t.Fatal("import into a non-empty index accepted")
	}
}

// docJournal records journalled documents.
type docJournal struct {
	docs []Document
	fail bool
}

func (j *docJournal) LogDocuments(docs []Document) error {
	if j.fail {
		return fmt.Errorf("journal down")
	}
	j.docs = append(j.docs, docs...)
	return nil
}

func TestIndexJournalHook(t *testing.T) {
	ix := NewIndex()
	j := &docJournal{}
	ix.SetJournal(j)
	docs := snapTestDocs()
	if err := ix.AddBatch(docs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.docs, docs) {
		t.Fatalf("journalled docs diverge: %d vs %d", len(j.docs), len(docs))
	}
	// Rejected documents never reach the journal.
	if err := ix.AddBatch([]Document{{URL: "empty", Text: "   "}}); err == nil {
		t.Fatal("empty document accepted")
	}
	if len(j.docs) != len(docs) {
		t.Fatal("rejected document was journalled")
	}
	// Journal failure surfaces.
	j.fail = true
	if err := ix.AddBatch([]Document{{URL: "x", Text: "More text arrives."}}); err == nil {
		t.Fatal("journal failure swallowed")
	}
}
