package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func testDocs() []Document {
	return []Document{
		{URL: "http://weather.example/bcn-jan-2004", Text: "Monday, January 31, 2004.\n" +
			"Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today.\n" +
			"Sunday, January 30, 2004.\n" +
			"Barcelona Weather: Temperature 7º C around 44.6 F Light rain.\n"},
		{URL: "http://news.example/crisis", Text: "The financial crisis hit markets in New York. " +
			"Analysts published documents during the first quarter of 1998. " +
			"The reports mention terms like recession and inflation."},
		{URL: "http://music.example/elprat", Text: "El Prat is a Spanish musical group. " +
			"The band played in Madrid last summer. Critics praised their new album."},
		{URL: "http://cine.example/wayne", Text: "John Wayne was an American film actor. " +
			"He starred in westerns for decades. The actor won an Academy Award."},
	}
}

func newTestIndex(t *testing.T, opts ...Option) *Index {
	t.Helper()
	ix := NewIndex(opts...)
	if err := ix.AddBatch(testDocs()); err != nil {
		t.Fatalf("AddBatch: %v", err)
	}
	return ix
}

func TestAddRejectsEmpty(t *testing.T) {
	ix := NewIndex()
	if err := ix.AddBatch([]Document{{URL: "x", Text: "   "}}); err == nil {
		t.Error("empty document accepted")
	}
	// One bad document rejects its whole batch, naming it.
	if err := ix.AddBatch([]Document{{URL: "b", Text: "Valid text here."}, {URL: "a", Text: ""}}); err == nil {
		t.Error("a batch with an empty document was accepted")
	} else if !strings.Contains(err.Error(), "batch document 1") {
		t.Errorf("AddBatch error = %v", err)
	}
	if n := ix.DocCount(); n != 0 {
		t.Errorf("rejected batches left %d documents", n)
	}
}

func TestCounts(t *testing.T) {
	ix := newTestIndex(t)
	if got := ix.DocCount(); got != 4 {
		t.Errorf("DocCount = %d, want 4", got)
	}
	if ix.PassageCount() < 4 {
		t.Errorf("PassageCount = %d, want >= 4", ix.PassageCount())
	}
	if ix.DF("temperature") != 1 {
		t.Errorf("DF(temperature) = %d, want 1", ix.DF("temperature"))
	}
	if ix.DF("actor") != 1 {
		t.Errorf("DF(actor) = %d, want 1", ix.DF("actor"))
	}
	if ix.DF("zzz") != 0 {
		t.Errorf("DF(zzz) = %d, want 0", ix.DF("zzz"))
	}
}

func TestQueryTerms(t *testing.T) {
	terms := QueryTerms("What is the temperature in January of 2004 in El Prat?")
	want := map[string]bool{"temperature": true, "january": true, "2004": true, "el": true, "prat": true}
	for _, term := range terms {
		if !want[term] {
			t.Errorf("unexpected query term %q", term)
		}
		delete(want, term)
	}
	for term := range want {
		t.Errorf("missing query term %q", term)
	}
}

// TestQueryTermsSoleNormalizer pins the unified normalisation contract:
// QueryTerms is the only place query text is lowercased, deduplicated and
// stopword-filtered — Search spends no map on it — so mixed-case and
// duplicated input must come out normalised there, and feeding its output
// to Search must match hand-normalised terms exactly.
func TestQueryTermsSoleNormalizer(t *testing.T) {
	terms := QueryTerms("TEMPERATURE Temperature the temperature in BARCELONA Barcelona")
	want := []string{"temperature", "barcelona"}
	if len(terms) != len(want) {
		t.Fatalf("QueryTerms = %v, want %v", terms, want)
	}
	for i := range want {
		if terms[i] != want[i] {
			t.Fatalf("QueryTerms = %v, want %v", terms, want)
		}
	}

	ix := newTestIndex(t)
	got := ix.Search(terms, 5)
	norm := ix.Search([]string{"temperature", "barcelona"}, 5)
	if len(got) != len(norm) {
		t.Fatalf("QueryTerms path found %d passages, normalised terms %d", len(got), len(norm))
	}
	for i := range got {
		if got[i].DocURL != norm[i].DocURL || got[i].SentStart != norm[i].SentStart || got[i].Score != norm[i].Score {
			t.Errorf("result %d diverges: %+v vs %+v", i, got[i], norm[i])
		}
	}

	// Search itself no longer lowercases: un-normalised terms are the
	// caller's bug, pinned here so the contract stays explicit.
	if got := ix.Search([]string{"TEMPERATURE"}, 5); len(got) != 0 {
		t.Errorf("Search lowercased a term: %d results for \"TEMPERATURE\"", len(got))
	}
	if got := ix.SearchDocuments([]string{"TEMPERATURE"}, 5); len(got) != 0 {
		t.Errorf("SearchDocuments lowercased a term: %d results", len(got))
	}
}

func TestSearchFindsWeatherPassage(t *testing.T) {
	ix := newTestIndex(t)
	got := ix.Search(QueryTerms("temperature january 2004 barcelona"), 3)
	if len(got) == 0 {
		t.Fatal("no passages found")
	}
	if got[0].DocURL != "http://weather.example/bcn-jan-2004" {
		t.Errorf("top passage from %s, want the weather page", got[0].DocURL)
	}
	if !strings.Contains(got[0].Text, "Temperature") {
		t.Errorf("passage text lost content: %q", got[0].Text)
	}
	if got[0].Score <= 0 {
		t.Error("top passage should have positive score")
	}
}

func TestSearchRankingDiscriminates(t *testing.T) {
	ix := newTestIndex(t)
	// A music query must rank the music page first, not the weather page.
	got := ix.Search(QueryTerms("spanish musical group band album"), 4)
	if len(got) == 0 || got[0].DocURL != "http://music.example/elprat" {
		t.Fatalf("music query top = %+v", got)
	}
}

func TestSearchEdgeCases(t *testing.T) {
	ix := newTestIndex(t)
	if got := ix.Search(nil, 5); got != nil {
		t.Error("nil terms should return nil")
	}
	if got := ix.Search([]string{"temperature"}, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := ix.Search([]string{"zzzunknown"}, 5); len(got) != 0 {
		t.Error("unknown term should match nothing")
	}
	empty := NewIndex()
	if got := empty.Search([]string{"x"}, 5); got != nil {
		t.Error("empty index should return nil")
	}
}

func TestSearchDeterministic(t *testing.T) {
	ix := newTestIndex(t)
	a := ix.Search(QueryTerms("temperature barcelona"), 5)
	b := ix.Search(QueryTerms("temperature barcelona"), 5)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic result count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].DocURL != b[i].DocURL || a[i].SentStart != b[i].SentStart {
			t.Errorf("result %d differs between runs", i)
		}
	}
}

func TestSearchDocumentsBaseline(t *testing.T) {
	ix := newTestIndex(t)
	got := ix.SearchDocuments(QueryTerms("financial crisis 1998"), 2)
	if len(got) == 0 || got[0].URL != "http://news.example/crisis" {
		t.Fatalf("doc search top = %+v", got)
	}
	// The baseline returns the whole document, not a focused span.
	if !strings.Contains(got[0].Text, "recession") {
		t.Error("document mode should return full text")
	}
}

func TestPassageWindowing(t *testing.T) {
	// 10 numbered sentences, window 3, stride 1: the window containing
	// "seven" must include its neighbours.
	var b strings.Builder
	words := []string{"one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten"}
	for _, w := range words {
		fmt.Fprintf(&b, "Sentence %s mentions topic %s. ", w, w)
	}
	ix := NewIndex(WithPassageSize(3), WithStride(1))
	if err := ix.AddBatch([]Document{{URL: "d", Text: b.String()}}); err != nil {
		t.Fatal(err)
	}
	if got, want := ix.PassageCount(), 8; got != want {
		t.Errorf("PassageCount = %d, want %d (10 sentences, window 3, stride 1)", got, want)
	}
	res := ix.Search([]string{"seven"}, 1)
	if len(res) != 1 {
		t.Fatal("no result")
	}
	if !strings.Contains(res[0].Text, "seven") {
		t.Errorf("window missing the hit: %q", res[0].Text)
	}
	if n := res[0].SentEnd - res[0].SentStart; n != 3 {
		t.Errorf("window size = %d, want 3", n)
	}
}

// Property: every sentence of every document appears in at least one
// passage (full coverage regardless of stride).
func TestPassageCoverage(t *testing.T) {
	for _, stride := range []int{1, 2, 3, 8} {
		ix := NewIndex(WithPassageSize(3), WithStride(stride))
		if err := ix.AddBatch(testDocs()); err != nil {
			t.Fatal(err)
		}
		covered := map[string]map[int]bool{}
		for _, p := range ix.AllPassages() {
			m, ok := covered[p.DocURL]
			if !ok {
				m = map[int]bool{}
				covered[p.DocURL] = m
			}
			for s := p.SentStart; s < p.SentEnd; s++ {
				m[s] = true
			}
		}
		for i := 0; i < ix.DocCount(); i++ {
			doc, _ := ix.Document(i)
			m := covered[doc.URL]
			for s := 0; ; s++ {
				if len(m) == 0 {
					t.Fatalf("stride %d: document %s has no passages", stride, doc.URL)
				}
				if s >= len(m) {
					break
				}
				if !m[s] {
					t.Errorf("stride %d: sentence %d of %s uncovered", stride, s, doc.URL)
				}
			}
		}
	}
}

func TestDocumentAccessor(t *testing.T) {
	ix := newTestIndex(t)
	if _, err := ix.Document(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := ix.Document(99); err == nil {
		t.Error("out-of-range index accepted")
	}
	d, err := ix.Document(0)
	if err != nil || d.URL == "" {
		t.Errorf("Document(0) = %v, %v", d, err)
	}
}

// TestConcurrentSearch searches an eagerly built index and its restored
// twin, whose passage reads decode token windows on every call, from
// several goroutines at once; every result must equal the eager one.
func TestConcurrentSearch(t *testing.T) {
	eager := newTestIndex(t)
	restored := NewIndex()
	if err := restored.Import(eager.Export()); err != nil {
		t.Fatal(err)
	}
	terms := []string{"temperature", "barcelona"}
	want := eager.Search(terms, 3)
	for _, ix := range []*Index{eager, restored} {
		done := make(chan bool, 4)
		for g := 0; g < 4; g++ {
			go func() {
				for i := 0; i < 100; i++ {
					if got := ix.Search(terms, 3); !reflect.DeepEqual(got, want) {
						t.Errorf("concurrent search diverged from the eager index:\n got %+v\nwant %+v", got, want)
						break
					}
				}
				done <- true
			}()
		}
		for g := 0; g < 4; g++ {
			<-done
		}
	}
}

func BenchmarkIndexAdd(b *testing.B) {
	docs := testDocs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := NewIndex()
		_ = ix.AddBatch(docs)
	}
}

func BenchmarkSearch(b *testing.B) {
	ix := NewIndex()
	_ = ix.AddBatch(testDocs())
	terms := QueryTerms("temperature january 2004 barcelona")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search(terms, 3)
	}
}
