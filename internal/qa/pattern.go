package qa

import (
	"strings"

	"dwqa/internal/nlp"
	"dwqa/internal/sbparser"
	"dwqa/internal/wordnet"
)

// QuestionPattern is a syntactic-semantic question pattern: it matches the
// wh-word, the verbal head and the focus noun of a question (the latter
// through WordNet synonymy/hyponymy) and fixes the expected answer type.
// The paper's example: the CLEF question "Which country did Iraq invade in
// 1990?" is matched by the pattern "[WHICH] [synonym of COUNTRY] [...]".
type QuestionPattern struct {
	// Name renders in traces, e.g. "[WHAT] [to be] [synonym of weather | temperature] …".
	Name string
	// Wh lists acceptable wh-word lemmas ("what", "which", ...); empty
	// accepts any (or none, for keyword-style questions).
	Wh []string
	// VerbLemmas lists acceptable verbal-head lemmas; empty accepts any.
	VerbLemmas []string
	// FocusLemmas constrains the focus noun: the head of the focus NP must
	// equal, be a synonym of, or be a hyponym of one of these lemmas.
	// Empty accepts any focus.
	FocusLemmas []string
	// Category is the expected answer type; when empty it is derived from
	// the focus head by ClassifyFocus.
	Category Category
	// DropFocus excludes the focus SB from the main SBs passed to the
	// passage retrieval module — the paper: "the SB country is not used in
	// Module 2 because it is not usual to find a country description in
	// the form of 'the country of Kuwait'".
	DropFocus bool
	// UnitConcept names the ontology concept whose value-format axioms
	// describe the answer's unit system (Step 4: "Temperature").
	UnitConcept string
	// Priority orders pattern matching; higher wins. Tuned (Step 4)
	// patterns outrank the defaults.
	Priority int
}

// matchFocus reports whether the focus head satisfies the pattern under
// the lexical database (nil-safe).
func (p *QuestionPattern) matchFocus(wn *wordnet.WordNet, focusHead string) bool {
	if len(p.FocusLemmas) == 0 {
		return true
	}
	if focusHead == "" {
		return false
	}
	for _, want := range p.FocusLemmas {
		if focusHead == want {
			return true
		}
		if wn == nil {
			continue
		}
		// Synonym: they share a synset.
		for _, s := range wn.Lookup(focusHead, wordnet.Noun) {
			if s.HasLemma(want) {
				return true
			}
		}
		// Hyponym: focus is-a want.
		if wn.LemmaIsA(focusHead, wordnet.Noun, want) {
			return true
		}
	}
	return false
}

// matchWh reports whether the wh-word satisfies the pattern.
func (p *QuestionPattern) matchWh(wh string) bool {
	if len(p.Wh) == 0 {
		return true
	}
	for _, w := range p.Wh {
		if strings.EqualFold(w, wh) {
			return true
		}
	}
	return false
}

// matchVerb reports whether the verbal head satisfies the pattern.
func (p *QuestionPattern) matchVerb(verbLemmas []string) bool {
	if len(p.VerbLemmas) == 0 {
		return true
	}
	for _, want := range p.VerbLemmas {
		for _, have := range verbLemmas {
			if want == have {
				return true
			}
		}
	}
	return false
}

// DefaultPatterns returns the base pattern set of the untuned system. It
// covers the taxonomy generically; it does not know about weather —
// Step 4 of the integration adds those patterns (see WeatherPatterns).
func DefaultPatterns() []QuestionPattern {
	return []QuestionPattern{
		{
			Name:      "[WHO] [...]",
			Wh:        []string{"who", "whom"},
			Category:  CatPerson,
			DropFocus: false,
			Priority:  10,
		},
		{
			Name:      "[WHEN] [...]",
			Wh:        []string{"when"},
			Category:  CatTempDate,
			DropFocus: false,
			Priority:  10,
		},
		{
			Name:      "[WHERE] [...]",
			Wh:        []string{"where"},
			Category:  CatPlace,
			DropFocus: false,
			Priority:  10,
		},
		{
			// "How many/much ..." — numerical quantity.
			Name:     "[HOW] [many|much] [...]",
			Wh:       []string{"how"},
			Category: CatNumQuantity,
			Priority: 10,
		},
		{
			// "[WHICH|WHAT] [synonym of X] ..." — the generic typed-focus
			// pattern; the category derives from the focus head via the
			// taxonomy, and the focus SB is dropped from retrieval.
			Name:      "[WHICH|WHAT] [synonym of FOCUS] [...]",
			Wh:        []string{"which", "what"},
			DropFocus: true,
			Priority:  5,
		},
		{
			// Fallback: anything else is treated as a definition request.
			Name:     "[*] (definition)",
			Category: CatDefinition,
			Priority: 0,
		},
	}
}

// WeatherPatterns returns the Step 4 tuning: the new question patterns for
// the weather queries of the Last Minute Sales scenario. The expected
// answer type is "a number lexical type followed by the unit-measure (ºC
// or F)", realised through the Temperature concept's value-format axioms;
// the weather/temperature focus SB is dropped from retrieval "because it
// is not usual that the noun phrases 'weather' and 'temperature' appear
// next to the temperature figures in a document".
func WeatherPatterns() []QuestionPattern {
	return []QuestionPattern{
		{
			Name:        "[WHAT] [to be] [synonym of weather | temperature] …",
			Wh:          []string{"what"},
			VerbLemmas:  []string{"be"},
			FocusLemmas: []string{"weather", "temperature"},
			Category:    CatNumMeasure,
			DropFocus:   true,
			UnitConcept: "Temperature",
			Priority:    20,
		},
		{
			// "How hot/cold is it in X?" variant.
			Name:        "[HOW] [hot|cold|warm] …",
			Wh:          []string{"how"},
			FocusLemmas: nil,
			Category:    CatNumMeasure,
			DropFocus:   false,
			UnitConcept: "Temperature",
			Priority:    15,
		},
	}
}

// questionFacts holds the surface features pattern matching consumes.
type questionFacts struct {
	wh         string           // lemma of the leading wh-word ("" when none)
	verbLemmas []string         // lemmas of the first verbal chunk, modals excluded
	focus      *sbparser.Block  // first NP after the wh-word / verbal head
	focusHead  string           // lemma of the focus head noun
	blocks     []sbparser.Block // all blocks of the question
	howAdj     string           // adjective following "how" ("hot", "many")
}

// extractFacts derives the matching features from an analysed question.
func extractFacts(toks []nlp.Token, blocks []sbparser.Block) questionFacts {
	f := questionFacts{blocks: blocks}
	for i, t := range toks {
		if t.Tag == nlp.TagWP || t.Tag == nlp.TagWRB {
			f.wh = t.Lemma
			if i+1 < len(toks) && (toks[i+1].Tag == nlp.TagJJ || toks[i+1].Lemma == "many" || toks[i+1].Lemma == "much") {
				f.howAdj = toks[i+1].Lemma
			}
			break
		}
	}
	for i := range blocks {
		if blocks[i].Type == sbparser.VBC {
			for _, t := range blocks[i].Tokens {
				if t.Tag != nlp.TagMD {
					f.verbLemmas = append(f.verbLemmas, t.Lemma)
				}
			}
			break
		}
	}
	// Focus: the first NP in the question (before or after the verb, not
	// inside a PP): "which country ..." and "what is the weather ..." both
	// yield the right block.
	for i := range blocks {
		if blocks[i].Type == sbparser.NP {
			f.focus = &blocks[i]
			f.focusHead = blocks[i].HeadNoun().Lemma
			break
		}
	}
	return f
}

// hotColdLemmas accepted by the "how hot" pattern.
var hotColdLemmas = map[string]bool{"hot": true, "cold": true, "warm": true, "cool": true}

// match applies one pattern to the question facts.
func (p *QuestionPattern) match(wn *wordnet.WordNet, f questionFacts) bool {
	if !p.matchWh(f.wh) {
		return false
	}
	if !p.matchVerb(f.verbLemmas) {
		return false
	}
	if strings.HasPrefix(p.Name, "[HOW] [hot") && !hotColdLemmas[f.howAdj] {
		return false
	}
	if strings.HasPrefix(p.Name, "[HOW] [many") && f.howAdj != "many" && f.howAdj != "much" {
		return false
	}
	return p.matchFocus(wn, f.focusHead)
}
