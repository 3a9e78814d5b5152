package qa

import (
	"fmt"
	"strings"

	"dwqa/internal/nlp"
	"dwqa/internal/ontology"
	"dwqa/internal/sbparser"
	"dwqa/internal/wordnet"
)

// Analysis is the output of Module 1 (question analysis): the matched
// pattern, the expected answer type, the main Syntactic Blocks to hand to
// passage retrieval, and the semantic constraints (dates, locations,
// units) the extractor will enforce.
type Analysis struct {
	Question string
	Tokens   []nlp.Token
	Blocks   []sbparser.Block

	Pattern  *QuestionPattern
	Category Category

	// FocusHead is the lemma of the focus noun ("weather", "country").
	FocusHead string

	// MainSBs are the blocks passed to Module 2 (the focus SB may be
	// dropped per the pattern).
	MainSBs []sbparser.Block

	// Terms are the retrieval terms derived from the main SBs, including
	// ontology expansions.
	Terms []string

	// TermSet is the membership set over Terms, computed once per
	// analysis so the extractors (Module 3) never rebuild it per passage.
	TermSet map[string]bool

	// Expansions records terms added through the shared ontology (e.g.
	// "barcelona" added for the airport "El Prat").
	Expansions []string

	// Dates are the temporal constraints found in the question.
	Dates []sbparser.DateRef

	// Locations are resolved location entities (canonical city names).
	Locations []string

	// ExpectedUnits are acceptable answer units from the unit concept's
	// value-format axioms (empty when the pattern has no unit concept).
	ExpectedUnits []string

	// sents memoises Module 3's per-sentence derivations for this question
	// only, keyed by (document index, sentence index): overlapping passage
	// windows share sentences, and a measure question reads each sentence
	// twice (passage location, then candidates). Dropped once extraction
	// ends, so nothing derived from the corpus outlives the question.
	sents map[[2]int]*sentInfo
}

// ExpectedAnswerType renders the expected answer type the way Table 1
// prints it: "Number + [ºC | F]" for unit-bearing categories, else the
// taxonomy category name.
func (a *Analysis) ExpectedAnswerType() string {
	if len(a.ExpectedUnits) > 0 {
		return "Number + [" + strings.Join(a.ExpectedUnits, " | ") + "]"
	}
	return string(a.Category)
}

// MainSBStrings renders the main SBs bracketed, Table 1 style:
// "[January of 2004]  [El Prat]  [Barcelona]". Ontology expansions are
// appended as extra pseudo-SBs exactly as the paper's trace shows
// Barcelona next to El Prat.
func (a *Analysis) MainSBStrings() []string {
	var out []string
	for _, b := range a.MainSBs {
		if np := cloneInner(b); np != "" {
			out = append(out, "["+np+"]")
		}
	}
	for _, e := range a.Expansions {
		out = append(out, "["+e+"]")
	}
	return out
}

func cloneInner(b sbparser.Block) string {
	switch b.Type {
	case sbparser.PP:
		if np := b.InnerNP(); np != nil {
			// Include the preposition for readability: "January of 2004"
			// renders from the PP chain; we print the inner NP text.
			return strings.TrimSpace(strings.TrimPrefix(b.Text(), b.Tokens[0].Text+" "))
		}
		return ""
	case sbparser.NP:
		return b.Text()
	default:
		return ""
	}
}

// analyze runs Module 1 for a question against the system's knowledge.
func (s *System) analyze(question string) (*Analysis, error) {
	question = strings.TrimSpace(question)
	if question == "" {
		return nil, fmt.Errorf("qa: empty question")
	}
	sents := nlp.SplitQuerySentences(question)
	if len(sents) == 0 {
		return nil, fmt.Errorf("qa: unanalysable question %q", question)
	}
	toks := sents[0].Tokens
	blocks := sbparser.Parse(sents[0])
	facts := extractFacts(toks, blocks)

	// Pattern matching: the snapshot is already sorted highest priority
	// first, ties by installation order.
	var matched *QuestionPattern
	for _, p := range s.snapshotPatterns() {
		if p.match(s.lexicon(), facts) {
			matched = p
			break
		}
	}
	if matched == nil {
		return nil, fmt.Errorf("qa: no question pattern matches %q", question)
	}

	a := &Analysis{
		Question:  question,
		Tokens:    toks,
		Blocks:    blocks,
		Pattern:   matched,
		FocusHead: facts.focusHead,
	}
	a.Category = matched.Category
	if a.Category == "" {
		a.Category = ClassifyFocus(s.lexicon(), facts.focusHead)
		// "What is <Entity>?" with a proper-noun focus asks for a
		// definition, not for hyponyms of the entity.
		if a.Category == CatObject && facts.focus != nil && facts.focus.Sub == sbparser.SubProperNoun {
			a.Category = CatDefinition
		}
	}

	// Expected units from the ontology axioms (Step 4 knowledge).
	if matched.UnitConcept != "" && s.dom != nil {
		for _, ax := range s.dom.AxiomsFor(matched.UnitConcept, ontology.AxiomValueFormat) {
			a.ExpectedUnits = append(a.ExpectedUnits, ax.Units...)
		}
	}
	if matched.UnitConcept != "" && len(a.ExpectedUnits) == 0 {
		// Untuned fallback: the bare scale letters.
		a.ExpectedUnits = []string{"ºC", "F"}
	}

	// Main SBs: every NP/PP except the focus (when dropped) and wh tokens.
	// Definition questions keep the focus — the entity being defined is
	// the only retrievable term ("What is Sirius?").
	dropFocus := matched.DropFocus && a.Category != CatDefinition
	for _, b := range blocks {
		if b.Type == sbparser.VBC {
			continue
		}
		if dropFocus && facts.focus != nil && sameBlock(b, *facts.focus) {
			continue
		}
		a.MainSBs = append(a.MainSBs, b)
	}

	// Temporal constraints.
	a.Dates = sbparser.ExtractDates(a.MainSBs)

	// Terms and entity resolution.
	seen := map[string]bool{}
	addTerm := func(t string) {
		t = strings.ToLower(t)
		if t != "" && !seen[t] {
			seen[t] = true
			a.Terms = append(a.Terms, t)
		}
	}
	for _, b := range a.MainSBs {
		for _, l := range b.ContentLemmas() {
			addTerm(l)
		}
	}
	// Verb lemmas join the terms (the paper's CLEF trace passes [to
	// invade] to Module 2).
	for _, v := range facts.verbLemmas {
		if v != "be" && v != "have" && v != "do" && !nlp.IsStopword(v) {
			addTerm(v)
		}
	}

	// Ontology-driven entity resolution and expansion (the Step 2-3
	// payoff): proper-noun SBs that resolve to domain instances contribute
	// their city, and location entities are canonicalised.
	if s.cfg.UseOntology {
		s.resolveEntities(a, addTerm)
	} else {
		// Without the ontology only surface city names are recognised.
		s.resolveSurfaceLocations(a)
	}
	// seen is exactly the membership set over a.Terms (addTerm keeps them
	// in lockstep); publish it for the extractors.
	a.TermSet = seen
	return a, nil
}

// termSet returns the question-term membership set. Analyses produced by
// analyze carry it precomputed; hand-built values (tests) fall back to
// building one.
func (a *Analysis) termSet() map[string]bool {
	if a.TermSet != nil {
		return a.TermSet
	}
	set := make(map[string]bool, len(a.Terms))
	for _, t := range a.Terms {
		set[t] = true
	}
	return set
}

// sameBlock compares blocks by their first token offset.
func sameBlock(a, b sbparser.Block) bool {
	if len(a.Tokens) == 0 || len(b.Tokens) == 0 {
		return false
	}
	return a.Tokens[0].Start == b.Tokens[0].Start && a.Type == b.Type
}

// resolveEntities resolves proper-noun SBs against the shared ontology and
// the merged lexicon: airports map to their city ("El Prat" → Barcelona),
// cities canonicalise, and each resolution can add expansion terms.
func (s *System) resolveEntities(a *Analysis, addTerm func(string)) {
	for _, b := range a.MainSBs {
		np := b.InnerNP()
		if np == nil || np.Sub != sbparser.SubProperNoun {
			continue
		}
		name := strings.ToLower(np.Text())

		// Domain ontology instance? (Step 2 contents.)
		if s.dom != nil {
			if concept, inst := s.dom.FindInstance(name); inst != nil {
				if city, ok := inst.Properties["locatedIn"]; ok {
					a.Locations = appendUnique(a.Locations, city)
					for _, f := range strings.Fields(strings.ToLower(city)) {
						addTerm(f)
					}
					a.Expansions = append(a.Expansions, city)
					continue
				}
				if strings.EqualFold(concept, "City") {
					a.Locations = appendUnique(a.Locations, inst.Name)
					continue
				}
			}
		}
		// Merged lexicon: airport instance with a holonym city.
		wn := s.lexicon()
		resolved := false
		for _, sense := range wn.Lookup(name, wordnet.Noun) {
			if wn.IsA(sense.ID, "n.airport") {
				for _, h := range sense.Related(wordnet.PartHolonym) {
					if hs := wn.Synset(h); hs != nil && wn.IsA(hs.ID, "n.city") {
						city := titleCase(hs.CanonicalLemma())
						a.Locations = appendUnique(a.Locations, city)
						for _, f := range strings.Fields(hs.CanonicalLemma()) {
							addTerm(f)
						}
						a.Expansions = append(a.Expansions, city)
						resolved = true
					}
				}
			}
			if wn.IsA(sense.ID, "n.city") {
				a.Locations = appendUnique(a.Locations, titleCase(sense.CanonicalLemma()))
				resolved = true
			}
		}
		_ = resolved
	}
}

// resolveSurfaceLocations is the ablation path: only names that are
// literally city senses in the untuned lexicon become locations.
func (s *System) resolveSurfaceLocations(a *Analysis) {
	wn := s.lexicon()
	for _, b := range a.MainSBs {
		np := b.InnerNP()
		if np == nil || np.Sub != sbparser.SubProperNoun {
			continue
		}
		name := strings.ToLower(np.Text())
		for _, sense := range wn.Lookup(name, wordnet.Noun) {
			if wn.IsA(sense.ID, "n.city") {
				a.Locations = appendUnique(a.Locations, titleCase(sense.CanonicalLemma()))
			}
		}
	}
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return list
		}
	}
	return append(list, s)
}

// titleCase renders a lexicon lemma as a display name ("new york" → "New
// York").
func titleCase(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		if len(f) > 0 {
			fields[i] = strings.ToUpper(f[:1]) + f[1:]
		}
	}
	return strings.Join(fields, " ")
}
