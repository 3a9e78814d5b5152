package nlp

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// queryTexts exercise every derived-lemma branch (plural, third person,
// past, gerund, ordinal) plus proper nouns, numbers and punctuation.
var queryTexts = []string{
	"What is the weather like in January of 2004 in El Prat?",
	"Monday, January 31, 2004\nBarcelona Weather: Temperature 8º C around 46.4 F Clear skies today",
	"Which country did Iraq invade in 1990?",
	"The 14th flight departed; prices increased while cities were booking 3 boxes.",
	"Zqxvorblies zqxvorbed the zqxvorbing 21zqth zqxvorbes.",
}

// TestAnalyzeQueryMatchesAnalyze: query analysis and document analysis
// differ only in how they treat the intern pool, never in the tokens,
// tags, lemmas, offsets or sentence boundaries they produce.
func TestAnalyzeQueryMatchesAnalyze(t *testing.T) {
	for _, text := range queryTexts {
		if got, want := AnalyzeQuery(text), Analyze(text); !reflect.DeepEqual(got, want) {
			t.Errorf("AnalyzeQuery(%q) = %v, want %v", text, got, want)
		}
		if got, want := SplitQuerySentences(text), SplitSentences(text); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitQuerySentences(%q) diverges from SplitSentences", text)
		}
	}
}

// TestAnalyzeQueryNeverInterns: unseen query forms and lemmas stay out
// of the pool; forms the pool already holds come back as the canonical
// instance.
func TestAnalyzeQueryNeverInterns(t *testing.T) {
	unseen := "Glorbulations glorbulated the glorbulating 77glth glorbulates in Glorbuary?"
	before := InternedCount()
	AnalyzeQuery(unseen)
	SplitQuerySentences(unseen)
	if after := InternedCount(); after != before {
		t.Fatalf("query analysis grew the intern pool from %d to %d entries", before, after)
	}

	Analyze("Barcelona skies")
	toks := AnalyzeQuery("BARCELONA skies")
	for i, want := range []string{Intern("barcelona"), Intern("sky")} {
		if got := toks[i].Lemma; got != want || unsafe.StringData(got) != unsafe.StringData(want) {
			t.Errorf("token %d lemma %q is not the pooled instance of %q", i, got, want)
		}
	}
}

// TestInternClones pins the pool's second rule: the stored instance is
// a copy, so interning a substring never pins its source's backing array.
func TestInternClones(t *testing.T) {
	doc := strings.Repeat("x", 1<<12) + " clonecheck"
	word := doc[len(doc)-len("clonecheck"):]
	got := Intern(word)
	if got != word {
		t.Fatalf("Intern(%q) = %q", word, got)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	if p := uintptr(unsafe.Pointer(unsafe.StringData(got))); p >= start && p < start+uintptr(len(doc)) {
		t.Fatal("interned string aliases the document it was cut from")
	}
}
