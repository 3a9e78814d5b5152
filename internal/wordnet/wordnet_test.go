package wordnet

import (
	"testing"
	"testing/quick"
)

func TestSeedBuilds(t *testing.T) {
	w := Seed()
	if w.Size() < 150 {
		t.Errorf("seed lexicon unexpectedly small: %d synsets", w.Size())
	}
}

func TestAddSynsetErrors(t *testing.T) {
	w := New()
	if _, err := w.AddSynset("x", Noun, BaseObject, "gloss"); err == nil {
		t.Error("AddSynset with no lemmas should fail")
	}
	if _, err := w.AddSynset("x", Noun, BaseObject, "gloss", "thing"); err != nil {
		t.Fatalf("AddSynset: %v", err)
	}
	if _, err := w.AddSynset("x", Noun, BaseObject, "gloss", "thing"); err == nil {
		t.Error("duplicate synset ID should fail")
	}
	if _, err := w.AddSynset("y", Noun, BaseObject, "gloss", "", " "); err == nil {
		t.Error("AddSynset with only empty lemmas should fail")
	}
}

func TestLookup(t *testing.T) {
	w := Seed()
	ss := w.Lookup("airport", Noun)
	if len(ss) != 1 || ss[0].ID != "n.airport" {
		t.Fatalf("Lookup(airport) = %v", ss)
	}
	// Multi-word lemma, case-insensitive, whitespace-normalised.
	ss = w.Lookup("Kennedy  International Airport", Noun)
	if len(ss) != 1 || ss[0].ID != "n.kennedy_airport" {
		t.Fatalf("Lookup(kennedy international airport) = %v", ss)
	}
	// "new york" is ambiguous between state and city.
	ss = w.Lookup("new york", Noun)
	if len(ss) != 2 {
		t.Fatalf("Lookup(new york) = %v, want 2 senses", ss)
	}
	if len(w.Lookup("nonexistentword", Noun)) != 0 {
		t.Error("Lookup of unknown lemma should find no sense")
	}
}

func TestIsA(t *testing.T) {
	w := Seed()
	cases := []struct {
		id, ancestor string
		want         bool
	}{
		{"n.airport", "n.artifact", true},
		{"n.airport", "n.entity", true},
		{"n.kennedy_airport", "n.airport", true},
		{"n.kennedy_airport", "n.facility", true},
		{"n.barcelona", "n.city", true},
		{"n.barcelona", "n.location", true},
		{"n.kuwait", "n.country", true},
		{"n.airport", "n.person", false},
		{"n.john_wayne_person", "n.person", true},
		{"n.john_wayne_person", "n.airport", false},
		{"n.el_prat_band", "n.group", true},
		{"n.sirius", "n.star", true},
		{"n.degree_celsius", "n.temperature_unit", true},
		{"n.airport", "n.airport", true}, // reflexive
	}
	for _, c := range cases {
		if got := w.IsA(c.id, c.ancestor); got != c.want {
			t.Errorf("IsA(%s, %s) = %v, want %v", c.id, c.ancestor, got, c.want)
		}
	}
}

func TestLemmaIsA(t *testing.T) {
	w := Seed()
	// The paper's CLEF example: hyponyms of "country" — Kuwait qualifies.
	if !w.LemmaIsA("kuwait", Noun, "country") {
		t.Error("kuwait should be a hyponym of country")
	}
	if w.LemmaIsA("john wayne", Noun, "country") {
		t.Error("john wayne is not a country")
	}
	// Before Step 3 enrichment, "el prat" is only a musical group.
	if w.LemmaIsA("el prat", Noun, "airport") {
		t.Error("seed lexicon must not know el prat as an airport")
	}
	if !w.LemmaIsA("el prat", Noun, "group") {
		t.Error("el prat should be a musical group in the seed")
	}
}

func TestAddLemmaEnrichment(t *testing.T) {
	// The paper's example: "JFK" does not exist, but "Kennedy International
	// Airport" does, so JFK is added as a synonym.
	w := Seed()
	if w.HasLemma("jfk") {
		t.Fatal("seed must not contain jfk")
	}
	if err := w.AddLemma("n.kennedy_airport", "JFK"); err != nil {
		t.Fatalf("AddLemma: %v", err)
	}
	if !w.LemmaIsA("jfk", Noun, "airport") {
		t.Error("after enrichment jfk should be an airport")
	}
	// Idempotent.
	if err := w.AddLemma("n.kennedy_airport", "jfk"); err != nil {
		t.Fatalf("AddLemma (repeat): %v", err)
	}
	if n := len(w.Lookup("jfk", Noun)); n != 1 {
		t.Errorf("duplicate AddLemma created %d senses", n)
	}
	if err := w.AddLemma("n.nope", "x"); err == nil {
		t.Error("AddLemma on unknown synset should fail")
	}
	if err := w.AddLemma("n.kennedy_airport", "  "); err == nil {
		t.Error("AddLemma with empty lemma should fail")
	}
}

func TestHypernymPathsAndDepth(t *testing.T) {
	w := Seed()
	paths := w.HypernymPaths("n.airport")
	if len(paths) == 0 {
		t.Fatal("no hypernym paths for airport")
	}
	p := paths[0]
	if p[0] != "n.airport" || p[len(p)-1] != "n.entity" {
		t.Errorf("path should run airport→entity, got %v", p)
	}
	if d := w.Depth("n.entity"); d != 0 {
		t.Errorf("Depth(entity) = %d, want 0", d)
	}
	if d := w.Depth("n.airport"); d <= 2 {
		t.Errorf("Depth(airport) = %d, want > 2", d)
	}
	if d := w.Depth("nope"); d != -1 {
		t.Errorf("Depth(unknown) = %d, want -1", d)
	}
}

func TestRelationsInverse(t *testing.T) {
	w := Seed()
	// Hypernym edges must have hyponym inverses.
	air := w.Synset("n.airport")
	foundParent := false
	for _, h := range air.Related(Hypernym) {
		if h == "n.airfield" {
			foundParent = true
		}
	}
	if !foundParent {
		t.Fatal("airport should have hypernym airfield")
	}
	airfield := w.Synset("n.airfield")
	foundChild := false
	for _, h := range airfield.Related(Hyponym) {
		if h == "n.airport" {
			foundChild = true
		}
	}
	if !foundChild {
		t.Error("airfield should list airport as hyponym")
	}
	// Antonyms are symmetric.
	hot := w.Synset("a.hot")
	if len(hot.Related(Antonym)) == 0 || hot.Related(Antonym)[0] != "a.cold" {
		t.Error("hot should have antonym cold")
	}
	cold := w.Synset("a.cold")
	if len(cold.Related(Antonym)) == 0 || cold.Related(Antonym)[0] != "a.hot" {
		t.Error("cold should have antonym hot")
	}
	// Holonym/meronym inverses.
	bcn := w.Synset("n.barcelona")
	if got := bcn.Related(PartHolonym); len(got) == 0 {
		t.Error("barcelona should be part of something")
	}
	spain := w.Synset("n.spain")
	foundBCN := false
	for _, m := range spain.Related(PartMeronym) {
		if m == "n.barcelona" {
			foundBCN = true
		}
	}
	if !foundBCN {
		t.Error("spain should have meronym barcelona")
	}
}

func TestRelateErrors(t *testing.T) {
	w := Seed()
	if err := w.Relate("n.nope", Hypernym, "n.entity"); err == nil {
		t.Error("Relate with unknown source should fail")
	}
	if err := w.Relate("n.entity", Hypernym, "n.nope"); err == nil {
		t.Error("Relate with unknown target should fail")
	}
	// Duplicate edges are silently ignored.
	before := len(w.Synset("n.airport").Related(Hypernym))
	if err := w.Relate("n.airport", Hypernym, "n.airfield"); err != nil {
		t.Fatalf("Relate duplicate: %v", err)
	}
	if after := len(w.Synset("n.airport").Related(Hypernym)); after != before {
		t.Errorf("duplicate edge added: %d → %d", before, after)
	}
}

// Every synset in the seed must reach a root through hypernyms (nouns) and
// carry a valid base type for its POS.
func TestSeedIntegrity(t *testing.T) {
	w := Seed()
	nounBases := map[BaseType]bool{}
	for _, b := range NounBaseTypes {
		nounBases[b] = true
	}
	verbBases := map[BaseType]bool{}
	for _, b := range VerbBaseTypes {
		verbBases[b] = true
	}
	for _, id := range w.Synsets() {
		s := w.Synset(id)
		switch s.POS {
		case Noun:
			if !nounBases[s.Base] {
				t.Errorf("%s: noun with bad base type %q", id, s.Base)
			}
			if d := w.Depth(id); d < 0 {
				t.Errorf("%s: unreachable from root", id)
			}
		case Verb:
			if !verbBases[s.Base] {
				t.Errorf("%s: verb with bad base type %q", id, s.Base)
			}
		}
		if s.Gloss == "" {
			t.Errorf("%s: missing gloss", id)
		}
		if len(s.Lemmas) == 0 {
			t.Errorf("%s: no lemmas", id)
		}
	}
	if got, want := len(NounBaseTypes), 25; got != want {
		t.Errorf("%d noun base types, want %d", got, want)
	}
	if got, want := len(VerbBaseTypes), 15; got != want {
		t.Errorf("%d verb base types, want %d", got, want)
	}
}

// Property: every lemma of every synset is findable through Lookup.
func TestIndexConsistency(t *testing.T) {
	w := Seed()
	for _, id := range w.Synsets() {
		s := w.Synset(id)
		for _, lemma := range s.Lemmas {
			found := false
			for _, hit := range w.Lookup(lemma, s.POS) {
				if hit.ID == id {
					found = true
				}
			}
			if !found {
				t.Errorf("lemma %q of %s not in index", lemma, id)
			}
		}
	}
}

// Property: NormalizeLemma is idempotent.
func TestNormalizeLemmaIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := NormalizeLemma(s)
		return NormalizeLemma(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: IsA is transitive along sampled seed chains.
func TestIsATransitivity(t *testing.T) {
	w := Seed()
	chains := [][3]string{
		{"n.kennedy_airport", "n.airport", "n.artifact"},
		{"n.barcelona", "n.city", "n.location"},
		{"n.sirius", "n.star", "n.object"},
		{"n.paris", "n.capital_city", "n.municipality"},
	}
	for _, c := range chains {
		if !w.IsA(c[0], c[1]) || !w.IsA(c[1], c[2]) {
			t.Fatalf("chain %v broken at a link", c)
		}
		if !w.IsA(c[0], c[2]) {
			t.Errorf("IsA not transitive over %v", c)
		}
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	w := Seed()
	done := make(chan bool)
	go func() {
		for i := 0; i < 200; i++ {
			w.Lookup("airport", Noun)
			w.IsA("n.barcelona", "n.city")
		}
		done <- true
	}()
	for i := 0; i < 200; i++ {
		_ = w.AddLemma("n.airport", "aeropuerto")
	}
	<-done
}

func BenchmarkLookup(b *testing.B) {
	w := Seed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Lookup("airport", Noun)
	}
}

func BenchmarkIsA(b *testing.B) {
	w := Seed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.IsA("n.kennedy_airport", "n.entity")
	}
}
