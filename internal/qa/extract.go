package qa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dwqa/internal/ir"
	"dwqa/internal/nlp"
	"dwqa/internal/sbparser"
	"dwqa/internal/wordnet"
)

// Answer is an extracted answer candidate. For measure questions it is a
// structured (value – unit – date – location – web page) record — the
// tuple Step 5 loads into the warehouse.
type Answer struct {
	Category Category
	Text     string  // surface answer ("8ºC", "Kuwait", "Sirius")
	Value    float64 // numeric value when the category is numerical
	HasValue bool
	Unit     string // normalised unit ("C", "F"); "" when none found
	Date     sbparser.DateRef
	Location string
	URL      string // source web page
	Sentence string // supporting sentence text
	Score    float64
}

// Render prints the answer the way Table 1 does:
// "(8ºC – Monday, January 31, 2004 – Barcelona)".
func (a Answer) Render() string {
	parts := []string{a.Text}
	if !a.Date.IsZero() {
		parts = append(parts, formatDateRef(a.Date))
	}
	if a.Location != "" {
		parts = append(parts, a.Location)
	}
	return "(" + strings.Join(parts, " – ") + ")"
}

// Format renders a DateRef in the paper's style ("Monday, January 31,
// 2004"), degrading gracefully for partial dates.
func formatDateRef(d sbparser.DateRef) string {
	switch {
	case d.Year != 0 && d.Month != 0 && d.Day != 0:
		t := time.Date(d.Year, time.Month(d.Month), d.Day, 0, 0, 0, 0, time.UTC)
		return fmt.Sprintf("%s, %s %d, %d", t.Weekday(), t.Month(), d.Day, d.Year)
	case d.Year != 0 && d.Month != 0:
		return fmt.Sprintf("%s %d", time.Month(d.Month), d.Year)
	case d.Year != 0:
		return strconv.Itoa(d.Year)
	case d.Month != 0:
		return time.Month(d.Month).String()
	default:
		return ""
	}
}

// extract runs Module 3 over the selected passages and returns scored
// candidates, best first.
func (s *System) extract(a *Analysis, passages []ir.Passage) []Answer {
	var out []Answer
	for rank, p := range passages {
		rankBonus := 0.2 / float64(rank+1)
		switch {
		case len(a.ExpectedUnits) > 0 || a.Category == CatNumMeasure:
			out = append(out, s.extractMeasures(a, p, rankBonus)...)
		case a.Category.IsPlace(), a.Category == CatPerson,
			a.Category == CatGroup, a.Category == CatObject,
			a.Category == CatProfession, a.Category == CatEvent:
			out = append(out, s.extractTyped(a, p, rankBonus)...)
		case a.Category.IsTemporal():
			out = append(out, s.extractTemporal(a, p, rankBonus)...)
		case a.Category.IsNumerical():
			out = append(out, s.extractNumeric(a, p, rankBonus)...)
		default:
			out = append(out, s.extractDefinition(a, p, rankBonus)...)
		}
	}
	sortAnswers(out)
	return out
}

func sortAnswers(out []Answer) {
	// Stable deterministic order: score desc, then URL, text. The
	// comparator takes pointers — Answer is a large struct, and a harvest
	// question carries hundreds of candidates, so by-value comparisons
	// were a measurable slice of the cold path.
	sort.SliceStable(out, func(i, j int) bool { return less(&out[i], &out[j]) })
}

func less(a, b *Answer) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.URL != b.URL {
		return a.URL < b.URL
	}
	return a.Text < b.Text
}

// unitAfter inspects tokens following a number for a temperature-style
// unit: "º C", "ºC", bare "C"/"F", "degrees [celsius|fahrenheit]".
// It returns the normalised unit and how many tokens it consumed.
func unitAfter(toks []nlp.Token, i int) (string, int) {
	j := i + 1
	consumed := 0
	// Optional degree marker.
	if j < len(toks) && (toks[j].Text == "º" || toks[j].Text == "°") {
		j++
		consumed++
		if j < len(toks) {
			switch strings.ToUpper(toks[j].Text) {
			case "C":
				return "C", consumed + 1
			case "F":
				return "F", consumed + 1
			}
		}
		// A bare degree marker defaults to Celsius usage in our corpus.
		return "C", consumed
	}
	if j < len(toks) {
		switch strings.ToUpper(toks[j].Text) {
		case "C", "ºC", "°C":
			return "C", 1
		case "F", "ºF", "°F":
			return "F", 1
		}
		if toks[j].Lemma == "degree" {
			if j+1 < len(toks) {
				switch toks[j+1].Lemma {
				case "celsius", "centigrade":
					return "C", 2
				case "fahrenheit":
					return "F", 2
				case "kelvin":
					return "K", 2
				}
			}
			return "C", 1
		}
	}
	return "", 0
}

// unitBefore handles table-aware layouts where the unit precedes the
// value ("High (ºC) 8"): it scans a short backward window for a degree
// marker followed by the scale letter.
func unitBefore(toks []nlp.Token, i int) string {
	lo := i - 5
	if lo < 0 {
		lo = 0
	}
	for j := i - 1; j >= lo; j-- {
		if toks[j].Text == "º" || toks[j].Text == "°" {
			if j+1 < i {
				switch strings.ToUpper(toks[j+1].Text) {
				case "C":
					return "C"
				case "F":
					return "F"
				}
			}
			return "C"
		}
	}
	return ""
}

// highLowContext scans a backward window before a value token for column
// labels or cue words distinguishing daily highs from lows.
func highLowContext(toks []nlp.Token, i int) (isHigh, isLow bool) {
	lo := i - 6
	if lo < 0 {
		lo = 0
	}
	for _, t := range toks[lo:i] {
		switch t.Lemma {
		case "high", "maximum", "max", "temperature":
			isHigh = true
		case "low", "minimum", "min":
			isLow = true
		}
	}
	return
}

// extractMeasures implements the tuned temperature answer pattern: a
// number followed by a recognised scale, validated against the ontology
// axioms, associated with the nearest date and location.
func (s *System) extractMeasures(a *Analysis, p ir.Passage, rankBonus float64) []Answer {
	var out []Answer
	var lastDate sbparser.DateRef
	passageLoc := s.passageLocation(a, p)
	if passageLoc == "" {
		// Table pages mention their city only near the top: fall back to
		// the document's leading sentences (title and header).
		passageLoc = s.documentLocation(p.DocIndex)
	}
	for idx := range p.Sentences {
		info := s.sentInfo(a, p, idx)
		blocks := info.blocks
		sentDate := lastDate
		if len(info.dates) > 0 {
			sentDate = info.dates[0]
			lastDate = info.dates[0]
		}
		sentLoc := info.loc
		if sentLoc == "" {
			sentLoc = passageLoc
		}
		toks := p.Sentences[idx].Tokens
		for i, t := range toks {
			if t.Tag != nlp.TagCD {
				continue
			}
			val, err := strconv.ParseFloat(strings.ReplaceAll(t.Text, ",", "."), 64)
			if err != nil {
				continue
			}
			// Reattach a leading minus sign ("Temperature -4º C") unless
			// the minus separates two numbers ("2004-01", "5-7").
			if i > 0 && (toks[i-1].Text == "-" || toks[i-1].Text == "−") &&
				(i < 2 || toks[i-2].Tag != nlp.TagCD) {
				val = -val
			}
			unit, _ := unitAfter(toks, i)
			// An explicit degree marker ("8º C") marks the primary reading
			// of a weather line; the paper's Table 1 extracts that one,
			// not the converted Fahrenheit echo.
			marker := i+1 < len(toks) && (toks[i+1].Text == "º" || toks[i+1].Text == "°")
			if unit == "" {
				if unit = unitBefore(toks, i); unit != "" {
					marker = true
				}
			}
			if unit == "K" {
				continue // kelvin figures are astronomy noise, not weather
			}
			// Years and day-of-month numbers inside a date NP are not
			// temperatures.
			if val >= 1500 && val <= 2200 {
				continue
			}
			if insideDateNP(blocks, t) {
				continue
			}
			cand := Answer{
				Category: a.Category,
				Value:    val,
				HasValue: true,
				Unit:     unit,
				Date:     sentDate,
				Location: sentLoc,
				URL:      p.DocURL,
				Sentence: info.text,
				Score:    rankBonus,
			}
			// Scoring per the tuned answer pattern.
			if unit != "" {
				cand.Score += 2
				if marker {
					cand.Score += 0.5
				}
				if matchesExpectedUnit(a, unit) {
					cand.Score += 1
				}
			} else {
				cand.Score -= 1.5
			}
			if s.valueInRange(val, unit) {
				cand.Score += 1.5
			} else {
				cand.Score -= 3
			}
			if len(a.Dates) > 0 {
				switch {
				case !cand.Date.IsZero() && dateMatches(a.Dates, cand.Date):
					cand.Score += 3
				case !cand.Date.IsZero():
					// The candidate's date is known and contradicts the
					// question: decisive rejection (a February reading
					// never answers a January question).
					cand.Score -= 4
				default:
					cand.Score -= 2
				}
			}
			if len(a.Locations) > 0 {
				if cand.Location != "" && locationMatches(a.Locations, cand.Location) {
					cand.Score += 3
				} else {
					cand.Score -= 1
				}
			}
			isHigh, isLow := highLowContext(toks, i)
			if isHigh {
				cand.Score += 1
			}
			if isLow {
				cand.Score -= 1
			}
			cand.Text = renderTemp(val, unit)
			out = append(out, cand)
		}
	}
	return out
}

// insideDateNP reports whether the token sits inside an NP classified as a
// date (so "31" in "January 31, 2004" is not a temperature candidate).
func insideDateNP(blocks []sbparser.Block, tok nlp.Token) bool {
	var check func(b sbparser.Block) bool
	check = func(b sbparser.Block) bool {
		if b.Type == sbparser.NP && (b.Sub == sbparser.SubDate || b.Sub == sbparser.SubDay) {
			for _, t := range b.Tokens {
				if t.Start == tok.Start {
					return true
				}
			}
		}
		for _, c := range b.Children {
			if check(c) {
				return true
			}
		}
		return false
	}
	for _, b := range blocks {
		if check(b) {
			return true
		}
	}
	return false
}

func renderTemp(val float64, unit string) string {
	v := strconv.FormatFloat(val, 'f', -1, 64)
	switch unit {
	case "C":
		return v + "ºC"
	case "F":
		return v + "F"
	default:
		return v
	}
}

func matchesExpectedUnit(a *Analysis, unit string) bool {
	if len(a.ExpectedUnits) == 0 {
		return true
	}
	for _, u := range a.ExpectedUnits {
		u = strings.ToUpper(strings.TrimPrefix(strings.TrimPrefix(u, "º"), "°"))
		if u == unit || strings.EqualFold(u, unitName(unit)) {
			return true
		}
	}
	return false
}

func unitName(unit string) string {
	switch unit {
	case "C":
		return "celsius"
	case "F":
		return "fahrenheit"
	}
	return unit
}

// valueInRange validates a temperature against the ontology range axiom,
// falling back to a physical plausibility window without one.
func (s *System) valueInRange(val float64, unit string) bool {
	if s.dom != nil && s.cfg.UseOntology {
		u := unit
		if u == "" {
			u = "C"
		}
		ok, err := s.dom.InRange("Temperature", val, u)
		if err == nil {
			return ok
		}
	}
	c := val
	if unit == "F" {
		c = (val - 32) / 1.8
	}
	return c >= -90 && c <= 60
}

func dateMatches(queryDates []sbparser.DateRef, d sbparser.DateRef) bool {
	for _, q := range queryDates {
		if q.Covers(d) {
			return true
		}
	}
	return false
}

func locationMatches(queryLocs []string, loc string) bool {
	for _, q := range queryLocs {
		if strings.EqualFold(q, loc) {
			return true
		}
	}
	return false
}

// sentenceLocation finds the first city-denoting entity in a sentence
// using the (possibly enriched) lexicon, trying multi-word spans first.
func (s *System) sentenceLocation(sent nlp.Sentence) string {
	toks := sent.Tokens
	for i := 0; i < len(toks); i++ {
		if toks[i].Tag != nlp.TagNP {
			continue
		}
		for span := min(3, len(toks)-i); span >= 1; span-- {
			var parts []string
			ok := true
			for _, t := range toks[i : i+span] {
				if t.Tag != nlp.TagNP {
					ok = false
					break
				}
				parts = append(parts, strings.ToLower(t.Text))
			}
			if !ok {
				continue
			}
			if city := s.cityOf(strings.Join(parts, " ")); city != "" {
				return city
			}
		}
	}
	return ""
}

// cityOf returns the canonical city a lower-cased NP name denotes in the
// lexicon, "" when it denotes none. The WordNet hypernym walk behind it
// dominated extraction, so answers are memoised by name: the names are
// corpus proper nouns, a set bound by the corpus vocabulary.
func (s *System) cityOf(name string) string {
	s.citiesMu.Lock()
	city, ok := s.cities[name]
	s.citiesMu.Unlock()
	if ok {
		return city
	}
	wn := s.lexicon()
	for _, sense := range wn.Lookup(name, wordnet.Noun) {
		if wn.IsA(sense.ID, "n.city") {
			city = titleCase(sense.CanonicalLemma())
			break
		}
	}
	s.citiesMu.Lock()
	if s.cities == nil {
		s.cities = make(map[string]string)
	}
	s.cities[name] = city
	s.citiesMu.Unlock()
	return city
}

// sentInfo returns the derivations for the i-th sentence of a passage
// window, memoised on the question's analysis: (DocIndex, SentStart+i)
// identifies the sentence across the question's overlapping passages.
func (s *System) sentInfo(a *Analysis, p ir.Passage, i int) *sentInfo {
	key := [2]int{p.DocIndex, p.SentStart + i}
	if si, ok := a.sents[key]; ok {
		return si
	}
	sent := p.Sentences[i]
	blocks := sbparser.Parse(sent)
	si := &sentInfo{
		text:   sent.Text(),
		blocks: blocks,
		dates:  sbparser.ExtractDates(blocks),
		loc:    s.sentenceLocation(sent),
	}
	if a.sents == nil {
		a.sents = make(map[[2]int]*sentInfo)
	}
	a.sents[key] = si
	return si
}

// passageLocation returns the first city mentioned anywhere in a passage.
func (s *System) passageLocation(a *Analysis, p ir.Passage) string {
	for i := range p.Sentences {
		if loc := s.sentInfo(a, p, i).loc; loc != "" {
			return loc
		}
	}
	return ""
}

// documentLocation returns the first city mentioned in the leading
// sentences of a document (its title and header region), cached per
// document index.
func (s *System) documentLocation(docIndex int) string {
	s.docLocMu.Lock()
	if loc, ok := s.docLoc[docIndex]; ok {
		s.docLocMu.Unlock()
		return loc
	}
	s.docLocMu.Unlock()

	loc := ""
	if doc, err := s.index.Document(docIndex); err == nil {
		head := doc.Text
		if len(head) > 400 {
			head = head[:400]
		}
		for _, sent := range nlp.SplitQuerySentences(head) {
			if l := s.sentenceLocation(sent); l != "" {
				loc = l
				break
			}
		}
	}
	s.docLocMu.Lock()
	if s.docLoc == nil {
		s.docLoc = make(map[int]string)
	}
	s.docLoc[docIndex] = loc
	s.docLocMu.Unlock()
	return loc
}

// extractTyped implements the hyponym-constrained proper-noun answer
// pattern: "a proper noun is required in the answer, with a semantic
// preference to the hyponyms of 'country' in WordNet" (and analogously
// for city, person, group, or the focus head itself for object).
func (s *System) extractTyped(a *Analysis, p ir.Passage, rankBonus float64) []Answer {
	constraint := a.Category.placeConstraint()
	switch a.Category {
	case CatPerson:
		constraint = "person"
	case CatProfession:
		constraint = "occupation"
	case CatGroup:
		constraint = "group"
	case CatEvent:
		constraint = "event"
	case CatObject:
		if a.FocusHead != "" {
			constraint = a.FocusHead
		} else {
			constraint = "entity"
		}
	}
	questionTerms := a.termSet()
	wn := s.lexicon()
	var out []Answer
	for idx := range p.Sentences {
		info := s.sentInfo(a, p, idx)
		toks := p.Sentences[idx].Tokens
		overlap := termOverlap(p.Sentences[idx], questionTerms)
		for i := 0; i < len(toks); i++ {
			if toks[i].Tag != nlp.TagNP {
				continue
			}
			for span := min(3, len(toks)-i); span >= 1; span-- {
				ok := true
				var parts []string
				for _, t := range toks[i : i+span] {
					if t.Tag != nlp.TagNP {
						ok = false
						break
					}
					parts = append(parts, strings.ToLower(t.Text))
				}
				if !ok {
					continue
				}
				name := strings.Join(parts, " ")
				if questionTerms[name] {
					continue // the question entity is not its own answer
				}
				if !wn.LemmaIsA(name, wordnet.Noun, constraint) {
					continue
				}
				cand := Answer{
					Category: a.Category,
					Text:     titleCase(name),
					URL:      p.DocURL,
					Sentence: info.text,
					Score:    rankBonus + 1 + float64(overlap),
				}
				out = append(out, cand)
				i += span - 1
				break
			}
		}
	}
	return out
}

// termOverlap counts the sentence's content lemmas (nlp.Sentence.
// ContentLemmas, without building the slice) that are question terms.
func termOverlap(sent nlp.Sentence, questionTerms map[string]bool) int {
	n := 0
	for _, t := range sent.Tokens {
		if t.IsContentWord() && !nlp.IsStopword(t.Lemma) && questionTerms[t.Lemma] {
			n++
		}
	}
	return n
}

// extractTemporal answers when-style questions with the dates of the
// best-overlapping sentences.
func (s *System) extractTemporal(a *Analysis, p ir.Passage, rankBonus float64) []Answer {
	questionTerms := a.termSet()
	var out []Answer
	for idx := range p.Sentences {
		info := s.sentInfo(a, p, idx)
		overlap := termOverlap(p.Sentences[idx], questionTerms)
		if overlap == 0 {
			continue
		}
		for _, d := range info.dates {
			if a.Category == CatTempYear && d.Year == 0 {
				continue
			}
			text := formatDateRef(d)
			if a.Category == CatTempYear {
				text = strconv.Itoa(d.Year)
			}
			out = append(out, Answer{
				Category: a.Category, Text: text, Date: d,
				URL: p.DocURL, Sentence: info.text,
				Score: rankBonus + float64(overlap),
			})
		}
	}
	return out
}

// extractNumeric answers quantity questions with numbers co-occurring
// with the question terms.
func (s *System) extractNumeric(a *Analysis, p ir.Passage, rankBonus float64) []Answer {
	questionTerms := a.termSet()
	var out []Answer
	for idx := range p.Sentences {
		info := s.sentInfo(a, p, idx)
		overlap := termOverlap(p.Sentences[idx], questionTerms)
		if overlap == 0 {
			continue
		}
		toks := p.Sentences[idx].Tokens
		for i, t := range toks {
			if t.Tag != nlp.TagCD {
				continue
			}
			val, err := strconv.ParseFloat(strings.ReplaceAll(t.Text, ",", "."), 64)
			if err != nil {
				continue
			}
			isPercent := i+1 < len(toks) && (toks[i+1].Text == "%" || toks[i+1].Lemma == "percent" || toks[i+1].Lemma == "percentage")
			if a.Category == CatNumPercent && !isPercent {
				continue
			}
			text := t.Text
			if isPercent {
				text += "%"
			}
			score := rankBonus + float64(overlap)
			// Year-like numbers are usually dates, not quantities: "La
			// Guardia served 3 terms between 1934 and 1945" must answer 3.
			if val >= 1500 && val <= 2200 && val == float64(int(val)) {
				score -= 0.5
			}
			out = append(out, Answer{
				Category: a.Category, Text: text, Value: val, HasValue: true,
				URL: p.DocURL, Sentence: info.text,
				Score: score,
			})
		}
	}
	return out
}

// extractDefinition answers definition questions with the predicate of a
// copular sentence about the entity ("Sirius is the brightest star...").
func (s *System) extractDefinition(a *Analysis, p ir.Passage, rankBonus float64) []Answer {
	questionTerms := a.termSet()
	var out []Answer
	for idx := range p.Sentences {
		info := s.sentInfo(a, p, idx)
		overlap := termOverlap(p.Sentences[idx], questionTerms)
		if overlap == 0 {
			continue
		}
		toks := p.Sentences[idx].Tokens
		for i, t := range toks {
			if t.Lemma == "be" && t.Tag.IsVerb() && i+1 < len(toks) && i > 0 {
				var rest []string
				for _, rt := range toks[i+1:] {
					if rt.Tag == nlp.TagSENT {
						break
					}
					rest = append(rest, rt.Text)
				}
				if len(rest) < 2 {
					continue
				}
				out = append(out, Answer{
					Category: CatDefinition,
					Text:     strings.Join(rest, " "),
					URL:      p.DocURL, Sentence: info.text,
					Score: rankBonus + float64(overlap),
				})
				break
			}
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
